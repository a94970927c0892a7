package expt

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Activation-model ablation (scheduler robustness)",
		Claim: "The paper's bounds are proved under the fully-synchronous scheduler; semi-synchronous and adversarial activation break the detection guarantee of the phase-synchronized algorithms",
		Run:   runE19,
	})
	register(Experiment{
		ID:    "E20",
		Title: "Semi-synchronous slowdown factor",
		Claim: "For an algorithm that survives desynchronization (the iterated-deepening baseline, two robots), lowering the activation probability p inflates rounds-to-detection roughly like 1/p",
		Run:   runE20,
	})
}

// e19Scheds names the scheduler grid of E19. Specs are instantiated
// fresh inside every job (schedulers are per-run stateful).
var e19Scheds = []string{"full", "semi:0.75", "adv:3"}

// e19Algos maps an algorithm name to its (arena-pooled) world builder and
// round bound.
var e19Algos = []struct {
	name  string
	build func(sc *gather.Scenario, a *gather.Arena) (*sim.World, error)
	bound func(sc *gather.Scenario) int
}{
	{"undispersed",
		func(sc *gather.Scenario, a *gather.Arena) (*sim.World, error) { return sc.NewUndispersedWorldIn(a) },
		func(sc *gather.Scenario) int { return gather.R(sc.G.N()) + 2 }},
	{"uxs",
		func(sc *gather.Scenario, a *gather.Arena) (*sim.World, error) { return sc.NewUXSWorldIn(a) },
		func(sc *gather.Scenario) int { return sc.Cfg.UXSGatherBound(sc.G.N()) + 2 }},
	{"faster",
		func(sc *gather.Scenario, a *gather.Arena) (*sim.World, error) { return sc.NewFasterWorldIn(a) },
		func(sc *gather.Scenario) int { return sc.Cfg.FasterBound(sc.G.N()) + 10 }},
	{"dessmark",
		func(sc *gather.Scenario, a *gather.Arena) (*sim.World, error) { return sc.NewDessmarkWorldIn(a) },
		func(sc *gather.Scenario) int { return sc.Cfg.FasterBound(sc.G.N()) + 10 }},
}

// e19Instance builds one clustered (hence undispersed) k-robot instance
// and checks its UXS coverage.
func e19Instance(fam graph.Family, n, k int, caseSeed uint64) (*gather.Scenario, error) {
	rng := graph.NewRNG(caseSeed)
	g := graph.FromFamily(fam, n, rng)
	sc := &gather.Scenario{
		G:         g,
		IDs:       gather.AssignIDs(k, g.N(), rng),
		Positions: place.Clustered(g, k, k-1, rng),
	}
	return sc, checkCover(g, sc.Cfg)
}

// E19: every algorithm under every activation model. Outcomes per run:
// detection-correct, gathered without detection, timeout within the
// (doubled) round budget, or crash — the algorithm violating one of its
// own invariants, which map construction legitimately does once its
// token-passing partner freezes mid-protocol.
func runE19(w io.Writer, o Options) error {
	fams := []graph.Family{graph.FamCycle}
	n, seeds, k := 8, 2, 3
	if !o.Quick {
		fams = []graph.Family{graph.FamCycle, graph.FamRandom}
		n, seeds = 10, 3
	}

	type cell struct {
		algo, sched                    string
		detect, gather, timeout, crash int
		total                          int
		detRounds                      int64
	}
	// One instance per (family, seed) case, built once and shared by every
	// algorithm x scheduler arm — like the other head-to-head experiments,
	// so arms differ only in the thing being ablated, never in the
	// instance drawn. Jobs derive a per-run scenario via WithScheduler
	// (schedulers are per-run stateful); the frozen graph is never rebuilt.
	type e19case struct {
		sc   *gather.Scenario
		seed uint64
	}
	var instances []e19case
	for fi, fam := range fams {
		for s := 0; s < seeds; s++ {
			caseSeed := runner.JobSeed(o.Seed+19, fi*seeds+s)
			sc, err := e19Instance(fam, n, k, caseSeed)
			if err != nil {
				return err
			}
			instances = append(instances, e19case{sc: sc, seed: caseSeed})
		}
	}
	var cells []*cell
	var jobs []runner.Job
	for _, algo := range e19Algos {
		for _, spec := range e19Scheds {
			c := &cell{algo: algo.name, sched: spec}
			cells = append(cells, c)
			for _, inst := range instances {
				algo, spec, inst := algo, spec, inst
				c.total++
				jobs = append(jobs, runner.Job{Meta: c,
					BuildIn: func(_ uint64, state any) (*sim.World, int, error) {
						sched, err := sim.ParseScheduler(spec, inst.seed^0x19)
						if err != nil {
							return nil, 0, err
						}
						sc := inst.sc.WithScheduler(sched)
						world, err := algo.build(sc, gather.ArenaOf(state))
						// Double the synchronous budget: enough for the
						// 1/p activation stretch, and a clear timeout
						// verdict for runs desynchronization breaks.
						return world, 2 * algo.bound(sc), err
					}})
			}
		}
	}
	results, _ := sweepRunner(o).Run(o.Seed+19, jobs)
	for _, res := range results {
		c := res.Meta.(*cell)
		switch {
		case res.Err != nil:
			c.crash++
		case res.Res.DetectionCorrect:
			c.detect++
			c.detRounds += int64(res.Res.Rounds)
		case res.Res.FirstGatherRound >= 0:
			c.gather++
		default:
			c.timeout++
		}
	}

	tb := NewTable("algorithm", "scheduler", "detect", "gather-only", "timeout", "crash", "avg-detect-rounds")
	fullDetect, fullTotal := 0, 0
	degraded := false
	for _, c := range cells {
		avg := "-"
		if c.detect > 0 {
			avg = fmt.Sprintf("%d", c.detRounds/int64(c.detect))
		}
		tb.Add(c.algo, c.sched, c.detect, c.gather, c.timeout, c.crash, avg)
		if c.sched == "full" {
			fullDetect += c.detect
			fullTotal += c.total
		} else if c.detect < c.total {
			degraded = true
		}
	}
	tb.Render(w)
	verdict(w, fullDetect == fullTotal,
		"fully-synchronous scheduler: all %d runs detection-correct (the proven regime holds)", fullTotal)
	verdict(w, degraded,
		"the synchronous schedule is load-bearing: detection fails for some algorithm under semi-sync or adversarial activation")
	return nil
}

// E20: rounds-to-detection of the iterated-deepening baseline (two
// robots — the algorithm E19 shows still gathers when desynchronized) as
// the activation probability p drops. Runs that exceed the inflated cap
// count as the cap (censored), which only understates the slowdown.
func runE20(w io.Writer, o Options) error {
	fams := []graph.Family{graph.FamCycle, graph.FamRandom}
	ps := []float64{1.0, 0.5, 0.25}
	n, seeds := 8, 2
	if !o.Quick {
		ps = []float64{1.0, 0.75, 0.5, 0.25}
		n, seeds = 9, 3
	}

	type point struct {
		p      float64
		detect int
		rounds []int64 // per instance, censored at cap
	}
	points := make([]*point, len(ps))
	for i, p := range ps {
		points[i] = &point{p: p, rounds: make([]int64, len(fams)*seeds)}
	}
	var jobs []runner.Job
	type jobMeta struct {
		pt   *point
		inst int
		cap  int
	}
	// One shared frozen instance per (family, seed) case; the p-arms only
	// differ in the per-job SemiSync scheduler derived via WithScheduler.
	for ii := 0; ii < len(fams)*seeds; ii++ {
		fam := fams[ii/seeds]
		caseSeed := runner.JobSeed(o.Seed+20, ii)
		rng := graph.NewRNG(caseSeed)
		g := graph.FromFamily(fam, n, rng)
		inst := &gather.Scenario{G: g, IDs: gather.AssignIDs(2, g.N(), rng),
			Positions: place.RandomDispersed(g, 2, rng)}
		if err := checkCover(g, inst.Cfg); err != nil {
			return err
		}
		for _, pt := range points {
			pt := pt
			m := &jobMeta{pt: pt, inst: ii}
			jobs = append(jobs, runner.Job{Meta: m,
				BuildIn: func(_ uint64, state any) (*sim.World, int, error) {
					sc := inst.WithScheduler(sim.NewSemiSync(pt.p, caseSeed^0x20))
					world, err := sc.NewDessmarkWorldIn(gather.ArenaOf(state))
					m.cap = 8 * (sc.Cfg.FasterBound(sc.G.N()) + 10)
					return world, m.cap, err
				}})
		}
	}
	results, _ := sweepRunner(o).Run(o.Seed+20, jobs)
	if err := runner.FirstErr(results); err != nil {
		return err
	}
	for _, res := range results {
		m := res.Meta.(*jobMeta)
		r := int64(res.Res.Rounds)
		if res.Res.DetectionCorrect {
			m.pt.detect++
		} else {
			r = int64(m.cap)
		}
		m.pt.rounds[m.inst] = r
	}

	base := points[0] // p = 1.0: the synchronous reference
	tb := NewTable("p", "detect", "mean-rounds", "mean-slowdown", "1/p")
	meanSlow := make([]float64, len(points))
	for pi, pt := range points {
		var sum int64
		slow := 0.0
		for i, r := range pt.rounds {
			sum += r
			slow += float64(r) / float64(base.rounds[i])
		}
		meanSlow[pi] = slow / float64(len(pt.rounds))
		tb.Add(fmt.Sprintf("%.2f", pt.p), fmt.Sprintf("%d/%d", pt.detect, len(pt.rounds)),
			sum/int64(len(pt.rounds)), meanSlow[pi], 1/pt.p)
	}
	tb.Render(w)
	verdict(w, base.detect == len(base.rounds),
		"p=1.00 (fully synchronous): all %d runs detection-correct", len(base.rounds))
	verdict(w, meanSlow[len(points)-1] >= meanSlow[0],
		"slowdown grows as activation thins: mean factor %.2f at p=%.2f vs %.2f at p=1.00",
		meanSlow[len(points)-1], points[len(points)-1].p, meanSlow[0])
	return nil
}
