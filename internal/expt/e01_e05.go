package expt

// E1-E5 submit their sweep points as runner jobs: each job derives every
// random choice (graph, ports, IDs, placement) from its own deterministic
// seed, so the sweep parallelizes across cores while staying bit-identical
// at any worker count. Construction happens inside the job (on a worker),
// tables and fits are assembled from the ordered results afterwards.

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// sweepSizes returns the n sweep for an experiment, respecting Quick mode.
func sweepSizes(o Options, quick, full []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Undispersed-Gathering scaling",
		Claim: "Theorem 8: Undispersed-Gathering gathers with detection in O(n^3) rounds",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "i-Hop-Meeting scaling",
		Claim: "Lemmas 9-10: robots at distance i reach an undispersed configuration in O(n^i log n) rounds",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "UXS gathering scaling",
		Claim: "Theorem 6: UXS-based gathering with detection runs in O(T log L) rounds",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Theorem 16 regimes",
		Claim: "k>=n/2+1 -> O(n^3); n/3+1<=k<n/2+1 -> O(n^4 log n); else ~O(n^5) (UXS tail)",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Lemma 15 distance bound",
		Claim: "floor(n/c)+1 robots always include a pair within 2c-2 hops, for any placement",
		Run:   runE5,
	})
}

// E1: rounds of Undispersed-Gathering vs n across catalog workloads. The
// schedule is R(n)+1 by construction (the detection counter), so we fit
// both the schedule rounds (the guarantee) and the first-gather round (the
// actual collection time). Workloads are parsed from the catalog once per
// sweep point; each job still builds its own instance because the graph is
// a function of the job seed (topology diversity is the point here).
func runE1(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{6, 9, 12}, []int{8, 12, 16, 20, 24})
	fams := []graph.Family{graph.FamCycle, graph.FamGrid, graph.FamRandom, graph.FamTree, graph.FamLollipop}
	type e1meta struct {
		fam graph.Family
		n   int // actual node count, filled by Build
	}
	var jobs []runner.Job
	for _, fam := range fams {
		for _, n := range sizes {
			fam := fam
			wl := graph.MustWorkload(fmt.Sprintf("%s:%d", fam, n))
			m := &e1meta{fam: fam}
			jobs = append(jobs, runner.Job{Meta: m,
				Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
					rng := graph.NewRNG(seed)
					g, err := wl.Build(rng)
					if err != nil {
						return nil, 0, err
					}
					m.n = g.N()
					k := max(2, g.N()/2)
					sc := &gather.Scenario{G: g,
						IDs:       gather.AssignIDs(k, g.N(), rng),
						Positions: place.Clustered(g, k, max(1, k/2), rng)}
					return sc.World(a, "undispersed", 0)
				}})
		}
	}
	results, err := sweep(o, o.Seed+1, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("family", "n", "rounds", "first-gather", "R(n)+1")
	var xs, ys []float64
	for _, r := range results {
		m := r.Meta.(*e1meta)
		if !r.Res.DetectionCorrect {
			return fmt.Errorf("E1: %s n=%d: detection failed", m.fam, m.n)
		}
		tb.Add(string(m.fam), m.n, r.Res.Rounds, r.Res.FirstGatherRound, gather.R(m.n)+1)
		xs = append(xs, float64(m.n))
		ys = append(ys, float64(r.Res.Rounds))
	}
	tb.Render(w)
	exp, _, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return err
	}
	verdict(w, exp <= 3.3 && exp >= 2.5, "fitted exponent %.2f vs paper bound n^3", exp)
	return nil
}

// E2: duration of i-Hop-Meeting vs n for each radius i, with the pair
// placed at exactly distance i. Fits the per-i growth exponent.
func runE2(w io.Writer, o Options) error {
	radii := []int{1, 2, 3}
	if !o.Quick {
		radii = []int{1, 2, 3, 4}
	}
	type e2meta struct {
		i, n  int
		found bool
	}
	var jobs []runner.Job
	for _, i := range radii {
		sizes := sweepSizes(o, []int{8, 10, 12}, []int{8, 12, 16, 20})
		if i >= 3 {
			sizes = sweepSizes(o, []int{6, 8}, []int{6, 8, 10, 12})
		}
		for _, n := range sizes {
			i, n := i, n
			m := &e2meta{i: i, n: n}
			jobs = append(jobs, runner.Job{Meta: m,
				Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
					rng := graph.NewRNG(seed)
					g := graph.Cycle(n).WithPermutedPorts(rng)
					u, v, ok := place.PairAtDistance(g, i, rng)
					if !ok {
						return nil, 0, nil
					}
					m.found = true
					sc := &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{u, v}}
					world, _, err := sc.World(a, "hopmeet", i)
					return world, sc.Cfg.HopDuration(i, n) + 1, err
				}})
		}
	}
	results, err := sweep(o, o.Seed+2, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("i", "n", "met-round", "duration", "bound O(n^i log n)")
	for _, i := range radii {
		var xs, ys, bs []float64
		for _, r := range results {
			m := r.Meta.(*e2meta)
			if m.i != i || !m.found {
				continue
			}
			if r.Res.FirstMeetRound < 0 {
				return fmt.Errorf("E2: i=%d n=%d: pair never met", m.i, m.n)
			}
			dur := gather.Config{}.HopDuration(m.i, m.n)
			tb.Add(m.i, m.n, r.Res.FirstMeetRound, dur, dur)
			xs = append(xs, float64(m.n))
			ys = append(ys, float64(dur))
			bs = append(bs, theoryHop(m.i, m.n))
		}
		exp, _, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return err
		}
		// Compare against the exponent of the n^i log n law fitted on the
		// same points: at small n the log factor and lower-order terms are
		// visible, so a fixed cap would misjudge the shape.
		ref, _, err := stats.FitPowerLaw(xs, bs)
		if err != nil {
			return err
		}
		verdict(w, exp >= ref-0.5 && exp <= ref+0.5,
			"radius %d: fitted duration exponent %.2f vs n^%d log n law's %.2f on the same window", i, exp, i, ref)
	}
	tb.Render(w)
	return nil
}

// E3: UXS gathering rounds vs n, and vs ID magnitude L at fixed n
// (Theorem 6's O(T log L): rounds scale with the bit length of the
// largest ID).
func runE3(w io.Writer, o Options) error {
	type e3meta struct {
		n, maxID, bound int
		idSweep         bool
	}
	sizes := sweepSizes(o, []int{5, 6, 7}, []int{5, 6, 7, 8, 9})
	var jobs []runner.Job
	for _, n := range sizes {
		n := n
		m := &e3meta{}
		jobs = append(jobs, runner.Job{Meta: m,
			Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.FromFamily(graph.FamRandom, n, rng)
				// Fixed equal-length IDs keep the number of 2T phases
				// constant across the sweep, isolating T's growth (the
				// log L factor is measured separately below).
				ids := []int{2, 3}
				pos := place.MaxMinDispersed(g, 2, rng)
				sc := &gather.Scenario{G: g, IDs: ids, Positions: pos}
				if err := checkCover(g, sc.Cfg); err != nil {
					return nil, 0, err
				}
				m.n, m.maxID = g.N(), 3
				m.bound = sc.Cfg.UXSGatherBound(g.N())
				return sc.World(a, "uxs", 0)
			}})
	}
	// L sweep at fixed n: small vs large IDs change the number of phases.
	// All three jobs reference ONE frozen graph (seeded by the experiment,
	// not the job, built once before submission) so only the IDs differ
	// between rows — no per-job graph construction at all.
	const nID = 6
	gID := graph.FromFamily(graph.FamCycle, nID, graph.NewRNG(o.Seed+3))
	if err := checkCover(gID, gather.Config{}); err != nil {
		return err
	}
	for _, idPair := range [][2]int{{1, 2}, {100, 101}, {MaxIDPair(nID)[0], MaxIDPair(nID)[1]}} {
		idPair := idPair
		m := &e3meta{idSweep: true}
		jobs = append(jobs, runner.Job{Meta: m,
			Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				sc := &gather.Scenario{G: gID, IDs: []int{idPair[0], idPair[1]},
					Positions: place.MaxMinDispersed(gID, 2, graph.NewRNG(seed))}
				m.n, m.maxID = nID, idPair[1]
				m.bound = sc.Cfg.UXSGatherBound(nID)
				return sc.World(a, "uxs", 0)
			}})
	}
	results, err := sweep(o, o.Seed+3, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("n", "k", "maxID", "rounds", "2T(B+1)+1")
	var xs, ys []float64
	var idRounds []int
	for _, r := range results {
		m := r.Meta.(*e3meta)
		if !r.Res.DetectionCorrect {
			return fmt.Errorf("E3: n=%d detection failed", m.n)
		}
		tb.Add(m.n, 2, m.maxID, r.Res.Rounds, m.bound)
		if m.idSweep {
			idRounds = append(idRounds, r.Res.Rounds)
		} else {
			xs = append(xs, float64(m.n))
			ys = append(ys, float64(r.Res.Rounds))
		}
	}
	tb.Render(w)
	exp, _, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return err
	}
	// Scaled mode uses T = Theta(n^3): rounds should track T, i.e. ~n^3.
	verdict(w, exp >= 2.4 && exp <= 3.6, "fitted exponent %.2f vs scaled T=Theta(n^3) schedule", exp)
	verdict(w, idRounds[0] < idRounds[2], "rounds grow with log L: %d (L=2) < %d (L=max)", idRounds[0], idRounds[2])
	return nil
}

// MaxIDPair returns the two largest legal IDs for an n-node run.
func MaxIDPair(n int) [2]int { return [2]int{gather.MaxID(n) - 1, gather.MaxID(n)} }

// theoryHop evaluates Lemma 10's exact law Σ_{j<=i}(n-1)^j · log L at n.
// At experiment-scale n the (n-1)^j geometric sum is visibly steeper than
// the smooth n^i·log n idealization, so the reference must use the paper's
// own formula (both are Θ(nⁱ log n)).
func theoryHop(i, n int) float64 {
	v, pow := 0.0, 1.0
	for j := 0; j < i; j++ {
		pow *= float64(n - 1)
		v += pow
	}
	lg := 0.0
	for x := n * n * n; x > 0; x >>= 1 {
		lg++
	}
	return v * lg
}

// E4: the headline Theorem 16 table — three robot-count regimes under
// adversarial max-min placement, fitted exponents per regime. Theorem 16
// describes worst-case schedule shapes, and the k=2 tail's meeting round
// swings by whole schedule phases with the port permutation, so every
// (regime, n) point runs several independently seeded replicates (cheap
// under the parallel runner) and the fit uses the slowest one — the
// empirical adversary; the Theorem 16 round bound is still checked on
// every replicate individually.
func runE4(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{6, 8}, []int{8, 10, 12})
	reps := 3
	if !o.Quick {
		reps = 5
	}
	type regime struct {
		name string
		k    func(n int) int
		// maxDist is Lemma 15's guaranteed worst-case initial distance
		// for the regime (2c-2); 99 marks the unconditional UXS tail.
		maxDist int
	}
	regimes := []regime{
		{"k>=n/2+1", func(n int) int { return n/2 + 1 }, 2},
		{"k>=n/3+1", func(n int) int { return n/3 + 1 }, 4},
		{"k=2 (tail)", func(n int) int { return 2 }, 99},
	}
	// Jobs are submitted regime-major, size-minor, reps consecutive, and
	// collected by walking the ordered results with the same strides.
	type e4meta struct {
		n, k, d int
	}
	var jobs []runner.Job
	for _, rg := range regimes {
		for _, n := range sizes {
			for rep := 0; rep < reps; rep++ {
				rg, n := rg, n
				m := &e4meta{n: n}
				jobs = append(jobs, runner.Job{Meta: m,
					Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
						rng := graph.NewRNG(seed)
						g := graph.Cycle(n).WithPermutedPorts(rng)
						k := rg.k(n)
						ids := gather.AssignIDs(k, n, rng)
						pos := place.MaxMinDispersed(g, k, rng)
						sc := &gather.Scenario{G: g, IDs: ids, Positions: pos}
						if err := checkCover(g, sc.Cfg); err != nil {
							return nil, 0, err
						}
						m.k, m.d = k, place.MinPairwise(g, pos)
						if m.d > rg.maxDist {
							return nil, 0, fmt.Errorf("E4: %s n=%d: distance %d violates Lemma 15's %d", rg.name, n, m.d, rg.maxDist)
						}
						return sc.World(a, "faster", 0)
					}})
			}
		}
	}
	results, err := sweep(o, o.Seed+4, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("regime", "n", "k", "min-dist", "worst-rounds", "first-gather")
	job := 0
	for _, rg := range regimes {
		var xs, ys, bs []float64
		withinBound := true
		for _, n := range sizes {
			group := results[job : job+reps]
			job += reps
			for _, r := range group {
				if !r.Res.DetectionCorrect {
					return fmt.Errorf("E4: %s n=%d: detection failed", rg.name, n)
				}
				if r.Res.Rounds > stepBound(n, rg.maxDist) {
					withinBound = false
				}
			}
			// The slowest replicate represents the point.
			worst := group[0]
			for _, r := range group[1:] {
				if r.Res.Rounds > worst.Res.Rounds {
					worst = r
				}
			}
			m := worst.Meta.(*e4meta)
			tb.Add(rg.name, m.n, m.k, m.d, worst.Res.Rounds, worst.Res.FirstGatherRound)
			xs = append(xs, float64(m.n))
			ys = append(ys, float64(worst.Res.Rounds))
			// Reference curve: the regimes with a Lemma 15 distance
			// guarantee fit against the bound at that guaranteed distance;
			// the unconditional tail has no such guarantee, so its honest
			// reference is the step bound at the adversary's actual
			// distance (the worst replicate saturates it).
			refDist := rg.maxDist
			if refDist > 5 {
				refDist = m.d
			}
			bs = append(bs, float64(stepBound(m.n, refDist)))
		}
		// Theorem 16's regimes are worst-case schedule shapes: measured
		// rounds must stay within the regime's guaranteed step bound
		// (Lemma 15 distance), and grow no faster than that bound.
		exp, _, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return err
		}
		ref, _, err := stats.FitPowerLaw(xs, bs)
		if err != nil {
			return err
		}
		verdict(w, withinBound && exp <= ref+0.5,
			"%s: fitted exponent %.2f vs regime bound's %.2f; all runs within the Theorem 16 bound: %v",
			rg.name, exp, ref, withinBound)
	}
	tb.Render(w)
	return nil
}

// E5: Lemma 15 — adversarial placements cannot keep floor(n/c)+1 robots
// pairwise farther than 2c-2 apart. Pure placement computation: the jobs
// return no world, the runner just shards the adversarial searches.
func runE5(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{9, 12}, []int{9, 12, 16, 20, 25})
	type e5meta struct {
		fam        graph.Family
		c          int
		n, k, d    int
		applicable bool
	}
	var jobs []runner.Job
	for _, fam := range graph.AllFamilies() {
		for _, n := range sizes {
			wl := graph.MustWorkload(fmt.Sprintf("%s:%d", fam, n))
			for _, c := range []int{2, 3, 4} {
				fam, c := fam, c
				m := &e5meta{fam: fam, c: c}
				jobs = append(jobs, runner.Job{Meta: m,
					Build: func(seed uint64, _ *gather.Arena) (*sim.World, int, error) {
						rng := graph.NewRNG(seed)
						g, err := wl.Build(rng)
						if err != nil {
							return nil, 0, err
						}
						k := g.N()/c + 1
						if k < 2 || k > g.N() {
							return nil, 0, nil
						}
						pos := place.MaxMinDispersed(g, k, rng)
						m.n, m.k = g.N(), k
						m.d = place.MinPairwise(g, pos)
						m.applicable = true
						return nil, 0, nil
					}})
			}
		}
	}
	results, err := sweep(o, o.Seed+5, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("family", "n", "c", "k", "adversarial-min-dist", "bound 2c-2")
	allOK := true
	for _, r := range results {
		m := r.Meta.(*e5meta)
		if !m.applicable {
			continue
		}
		tb.Add(string(m.fam), m.n, m.c, m.k, m.d, 2*m.c-2)
		if m.d > 2*m.c-2 {
			allOK = false
		}
	}
	tb.Render(w)
	verdict(w, allOK, "every adversarial placement obeys the 2c-2 bound")
	return nil
}
