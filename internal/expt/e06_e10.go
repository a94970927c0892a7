package expt

// E6-E10 run through the parallel runner. Head-to-head experiments (E8,
// E10) submit one job per (instance, algorithm): both jobs of a pair
// reference ONE shared scenario — a frozen graph plus read-only IDs and
// positions, built and checked for UXS coverage once from the per-case
// seed before submission — so the comparison stays apples-to-apples, the
// runs parallelize, and no job constructs a graph.

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "Rounds vs initial pair distance",
		Claim: "Theorem 12: distance 0-2 -> O(n^3); distance 3-4 -> O(n^4 log n); distance 5 -> O(n^5 log n); else UXS tail",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Crossover figure: rounds vs k at fixed n",
		Claim: "More robots => earlier step succeeds => fewer rounds (the power of many robots)",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Who wins: Faster-Gathering vs UXS baseline",
		Claim: "Faster-Gathering beats the Ta-Shma-Zwick-style UXS algorithm whenever robots are many or close",
		Run:   runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Robot memory",
		Claim: "Theorem 8/16: each robot needs O(m log n) bits (map storage dominates)",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Detection overhead",
		Claim: "Detection (termination) happens after gathering; overhead is the scheduled tail of the running step",
		Run:   runE10,
	})
}

// stepBound returns the cumulative Faster-Gathering round bound through
// the step that handles initial pair distance d (d > 5 means the UXS tail),
// under the default Config every experiment instance runs with.
func stepBound(n, d int) int {
	var cfg gather.Config
	bound := gather.R(n) + 1 // step 1
	if d <= 0 {
		return bound
	}
	for i := 2; i <= min(d+1, 6); i++ {
		bound += cfg.HopDuration(i-1, n) + gather.R(n) + 1
	}
	if d > 5 {
		bound += cfg.UXSGatherBound(n) + 1
	}
	return bound
}

// E6: rounds of Faster-Gathering for a pair placed at exact distance d.
func runE6(w io.Writer, o Options) error {
	n := 8
	if !o.Quick {
		n = 10
	}
	type e6meta struct {
		d     int
		found bool
	}
	var jobs []runner.Job
	for _, d := range []int{0, 1, 2, 3, 4, 5, n - 1} {
		d := d
		m := &e6meta{d: d}
		jobs = append(jobs, runner.Job{Meta: m,
			Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.Path(n).WithPermutedPorts(rng)
				u, v, ok := place.PairAtDistance(g, d, rng)
				if !ok {
					return nil, 0, nil
				}
				sc := &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{u, v}}
				if err := checkCover(g, sc.Cfg); err != nil {
					return nil, 0, err
				}
				m.found = true
				return sc.World(a, "faster", 0)
			}})
	}
	results, err := sweep(o, o.Seed+6, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("distance", "rounds", "step-bound", "within-bound")
	allOK := true
	for _, r := range results {
		m := r.Meta.(*e6meta)
		if !m.found {
			continue
		}
		if !r.Res.DetectionCorrect {
			return fmt.Errorf("E6: d=%d: detection failed", m.d)
		}
		bound := stepBound(n, m.d)
		within := r.Res.Rounds <= bound
		allOK = allOK && within
		tb.Add(m.d, r.Res.Rounds, bound, within)
	}
	tb.Render(w)
	verdict(w, allOK, "every distance case finishes within its Theorem 12 step bound")
	return nil
}

// E7: rounds vs k at fixed n under adversarial placement — the data for
// the crossover figure (steps of the regime staircase). All k share one
// frozen graph (built before submission, referenced read-only by every
// job) so the staircase is measured on a fixed instance with zero per-job
// graph construction.
func runE7(w io.Writer, o Options) error {
	rng := graph.NewRNG(o.Seed + 7)
	n := 10
	if !o.Quick {
		n = 12
	}
	g := graph.Cycle(n).WithPermutedPorts(rng)
	if err := checkCover(g, gather.Config{}); err != nil {
		return err
	}
	type e7meta struct {
		k, minDist int
	}
	var jobs []runner.Job
	for k := 2; k <= n; k++ {
		k := k
		m := &e7meta{k: k}
		jobs = append(jobs, runner.Job{Meta: m,
			Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				jrng := graph.NewRNG(seed)
				ids := gather.AssignIDs(k, n, jrng)
				pos := place.MaxMinDispersed(g, k, jrng)
				sc := &gather.Scenario{G: g, IDs: ids, Positions: pos}
				m.minDist = place.MinPairwise(g, pos)
				return sc.World(a, "faster", 0)
			}})
	}
	results, err := sweep(o, o.Seed+7, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("k", "min-dist", "rounds", "first-gather")
	prevRounds := -1
	monotone := true
	for _, r := range results {
		m := r.Meta.(*e7meta)
		if !r.Res.DetectionCorrect {
			return fmt.Errorf("E7: k=%d: detection failed", m.k)
		}
		tb.Add(m.k, m.minDist, r.Res.Rounds, r.Res.FirstGatherRound)
		if prevRounds >= 0 && r.Res.Rounds > prevRounds {
			monotone = false
		}
		prevRounds = r.Res.Rounds
	}
	tb.Render(w)
	verdict(w, monotone, "rounds are non-increasing in k under adversarial placement (staircase)")
	return nil
}

// E8: head-to-head of Faster-Gathering against the UXS-only baseline on
// the three canonical configurations.
func runE8(w io.Writer, o Options) error {
	n := 8
	if !o.Quick {
		n = 10
	}
	type cfgCase struct {
		name string
		k    int
		pos  func(g *graph.Graph, rng *graph.RNG) []int
	}
	cases := []cfgCase{
		{"undispersed (clustered)", 4, func(g *graph.Graph, rng *graph.RNG) []int { return place.Clustered(g, 4, 2, rng) }},
		{"many robots (k=n/2+1)", n/2 + 1, func(g *graph.Graph, rng *graph.RNG) []int { return place.MaxMinDispersed(g, n/2+1, rng) }},
		{"two far robots", 2, func(g *graph.Graph, rng *graph.RNG) []int { return place.MaxMinDispersed(g, 2, rng) }},
	}
	// Both algorithms of a case reference the identical shared scenario,
	// built once from the case seed; only the agent type differs and only
	// worlds are constructed inside the jobs.
	scenario := func(c cfgCase, caseSeed uint64) *gather.Scenario {
		rng := graph.NewRNG(caseSeed)
		g := graph.Cycle(n).WithPermutedPorts(rng)
		ids := gather.AssignIDs(c.k, n, rng)
		return &gather.Scenario{G: g, IDs: ids, Positions: c.pos(g, rng)}
	}
	var jobs []runner.Job
	for ci, c := range cases {
		sc := scenario(c, runner.JobSeed(o.Seed+8, ci))
		if err := checkCover(sc.G, sc.Cfg); err != nil {
			return err
		}
		jobs = append(jobs, algoJob(sc, "faster", nil), algoJob(sc, "uxs", nil))
	}
	results, err := sweep(o, o.Seed+8, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("config", "faster-rounds", "uxs-rounds", "speedup")
	fasterWonCloseCases := true
	for ci, c := range cases {
		resF, resU := results[2*ci].Res, results[2*ci+1].Res
		if !resF.DetectionCorrect || !resU.DetectionCorrect {
			return fmt.Errorf("E8: %s: detection failed", c.name)
		}
		speedup := float64(resU.Rounds) / float64(resF.Rounds)
		tb.Add(c.name, resF.Rounds, resU.Rounds, speedup)
		if ci < 2 && speedup <= 1 {
			fasterWonCloseCases = false
		}
	}
	tb.Render(w)
	verdict(w, fasterWonCloseCases, "Faster-Gathering wins when robots are clustered or many (paper's headline)")
	return nil
}

// E9: robot memory — the learned map dominates and must stay within
// O(m log n) bits. The map builders never issue Terminate, so the jobs
// stop on the builder's own Done signal via the runner's Stop predicate.
func runE9(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{6, 10, 14}, []int{8, 12, 16, 20, 24})
	type e9meta struct {
		n, m   int
		finder *mapping.FinderAgent
	}
	var jobs []runner.Job
	for _, n := range sizes {
		n := n
		m := &e9meta{}
		jobs = append(jobs, runner.Job{Meta: m,
			Stop: func(*sim.World) bool { return m.finder.B.Done() },
			Build: func(seed uint64, _ *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.FromFamily(graph.FamRandom, n, rng)
				m.n, m.m = g.N(), g.M()
				m.finder = mapping.NewFinderAgent(1, g.N(), 2)
				token := mapping.NewTokenAgent(2, 1)
				world, err := sim.NewWorld(g, []sim.Agent{m.finder, token}, []int{0, 0})
				return world, mapping.Budget(g.N()), err
			}})
	}
	results, err := sweep(o, o.Seed+9, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("n", "m", "map-bits", "m*log2(n)", "ratio")
	allOK := true
	for _, r := range results {
		m := r.Meta.(*e9meta)
		if !m.finder.B.Done() {
			return fmt.Errorf("E9: n=%d: map not finished", m.n)
		}
		bits := m.finder.B.MemoryBits()
		logn := 1
		for v := m.n - 1; v > 0; v >>= 1 {
			logn++
		}
		bound := m.m * logn
		ratio := float64(bits) / float64(bound)
		tb.Add(m.n, m.m, bits, bound, ratio)
		if ratio > 8 {
			allOK = false
		}
	}
	tb.Render(w)
	verdict(w, allOK, "map memory stays within a constant factor of m log n")
	return nil
}

// E10: detection overhead — rounds between the first full co-location and
// termination, for both algorithms.
func runE10(w io.Writer, o Options) error {
	n := 8
	cases := []struct {
		name string
		k    int
	}{{"clustered", 4}, {"pair", 2}}
	scenario := func(k int, clustered bool, caseSeed uint64) *gather.Scenario {
		rng := graph.NewRNG(caseSeed)
		g := graph.Cycle(n).WithPermutedPorts(rng)
		ids := gather.AssignIDs(k, n, rng)
		var pos []int
		if clustered {
			pos = place.Clustered(g, k, 2, rng)
		} else {
			pos = place.MaxMinDispersed(g, k, rng)
		}
		return &gather.Scenario{G: g, IDs: ids, Positions: pos}
	}
	var jobs []runner.Job
	for ci, c := range cases {
		clustered := c.name == "clustered"
		sc := scenario(c.k, clustered, runner.JobSeed(o.Seed+10, ci))
		if err := checkCover(sc.G, sc.Cfg); err != nil {
			return err
		}
		jobs = append(jobs, algoJob(sc, "faster", nil), algoJob(sc, "uxs", nil))
	}
	results, err := sweep(o, o.Seed+10, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("algorithm", "config", "gather-round", "detect-round", "overhead")
	ok := true
	for ci, c := range cases {
		for ai, algo := range []string{"faster", "uxs"} {
			res := results[2*ci+ai].Res
			over := res.Rounds - res.FirstGatherRound
			tb.Add(algo, c.name, res.FirstGatherRound, res.Rounds, over)
			if res.FirstGatherRound < 0 || over < 0 {
				ok = false
			}
		}
	}
	tb.Render(w)
	verdict(w, ok, "detection always at or after gathering; overhead is the scheduled step tail")
	return nil
}
