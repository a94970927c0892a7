package expt

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/hunt"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/fault"
)

// E21-E23 probe the fault-injection layer: what the paper's crash-only
// adversary model looks like once generalized to crash-recovery,
// Byzantine corruption and edge churn (E21, E22), and how bad the
// worst deterministically-findable schedule is (E23).

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Fault-adversary survival table",
		Claim: "The paper's fail-stop tolerance does not generalize: permanent crashes leave the survivors' detection intact, but crash-recovery with amnesia and Byzantine corruption degrade or crash some gathering algorithms",
		Run:   runE21,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Edge-churn rate sweep",
		Claim: "Under connectivity-preserving edge churn the UXS walk still gathers — universal sequences survive detours — but the churned trajectory measurably diverges from the static one",
		Run:   runE22,
	})
	register(Experiment{
		ID:    "E23",
		Title: "Worst-case-seed hunter",
		Claim: "A seeded elitist search over the adversary's choice space (placement x activation x fault schedule) finds a worst case at least as bad as uniform sampling ever does, reproducibly",
		Run:   runE23,
	})
}

// e21Advs names the fault-adversary grid of E21. Crash rounds are pinned
// (@3) so every arm's faults actually fire early in every run.
var e21Advs = []string{"none", "crash:1@3", "recover:1,6@3", "byz:1"}

// e21Algos is the algorithm grid: the four gathering-with-detection
// algorithms (hopmeet is a meeting primitive and never reports
// detection; its fault paths are pinned by the golden suite instead).
var e21Algos = []string{"faster", "uxs", "undispersed", "dessmark"}

// E21: every gathering algorithm under every fault adversary on shared
// clustered instances. Outcomes per run: detection-correct, gathered
// without detection, timeout within the round budget, or crash — the
// algorithm violating an internal invariant, which Byzantine payloads
// legitimately provoke.
func runE21(w io.Writer, o Options) error {
	fams := []graph.Family{graph.FamCycle}
	n, seeds, k := 8, 2, 3
	if !o.Quick {
		fams = []graph.Family{graph.FamCycle, graph.FamRandom}
		n, seeds = 10, 3
	}

	type cell struct {
		algo, adv                      string
		detect, gather, timeout, crash int
		total                          int
	}
	type e21case struct {
		sc   *gather.Scenario
		seed uint64
	}
	var instances []e21case
	for fi, fam := range fams {
		for s := 0; s < seeds; s++ {
			caseSeed := runner.JobSeed(o.Seed+21, fi*seeds+s)
			sc, err := e19Instance(fam, n, k, caseSeed)
			if err != nil {
				return err
			}
			instances = append(instances, e21case{sc: sc, seed: caseSeed})
		}
	}
	var cells []*cell
	var jobs []runner.Job
	for _, algo := range e21Algos {
		for _, adv := range e21Advs {
			fs, err := fault.Parse(adv)
			if err != nil {
				return err
			}
			c := &cell{algo: algo, adv: adv}
			cells = append(cells, c)
			for _, inst := range instances {
				algo, fs, inst := algo, fs, inst
				c.total++
				jobs = append(jobs, runner.Job{Meta: c,
					Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
						world, cap, err := inst.sc.World(a, algo, 2)
						if err != nil {
							return nil, 0, err
						}
						plan := fs.Plan(k, cap, inst.seed^gather.FaultSeedSalt)
						if err := fault.Apply(world, inst.sc.IDs, plan); err != nil {
							return nil, 0, err
						}
						return world, cap, nil
					}})
			}
		}
	}
	results, _ := runner.New(o.Parallelism).Run(o.Seed+21, jobs)
	for _, res := range results {
		c := res.Meta.(*cell)
		switch {
		case res.Err != nil:
			c.crash++
		case res.Res.DetectionCorrect:
			c.detect++
		case res.Res.FirstGatherRound >= 0:
			c.gather++
		default:
			c.timeout++
		}
	}

	tb := NewTable("algorithm", "adversary", "detect", "gather-only", "timeout", "crash", "survived")
	cleanDetect, cleanTotal := 0, 0
	faultedDegraded := false
	for _, c := range cells {
		tb.Add(c.algo, c.adv, c.detect, c.gather, c.timeout, c.crash,
			fmt.Sprintf("%d/%d", c.total-c.crash, c.total))
		if c.adv == "none" {
			cleanDetect += c.detect
			cleanTotal += c.total
		} else if c.detect < c.total {
			faultedDegraded = true
		}
	}
	tb.Render(w)
	verdict(w, cleanDetect == cleanTotal,
		"fault-free arm: all %d runs detection-correct (the proven regime holds)", cleanTotal)
	verdict(w, faultedDegraded,
		"the fault-free assumption is load-bearing: some fault adversary strips detection from some algorithm")
	return nil
}

// E22: the UXS gatherer on one shared cycle instance as the per-round
// edge-churn probability rises. Rounds-to-gather is censored at the
// round budget; censoring only understates the inflation.
func runE22(w io.Writer, o Options) error {
	rates := []float64{0, 0.2}
	n, seeds := 8, 2
	if !o.Quick {
		rates = []float64{0, 0.1, 0.2, 0.4}
		n, seeds = 10, 3
	}

	rng := graph.NewRNG(o.Seed + 22)
	g := graph.FromFamily(graph.FamCycle, n, rng)
	if err := checkCover(g, gather.Config{}); err != nil {
		return err
	}

	type arm struct {
		rate           float64
		detect, gather int
		rounds         []int64 // per seed: first-gather round, censored at cap
	}
	arms := make([]*arm, len(rates))
	for i, r := range rates {
		arms[i] = &arm{rate: r, rounds: make([]int64, seeds)}
	}
	type jobMeta struct {
		arm  *arm
		inst int
		cap  int
	}
	var jobs []runner.Job
	for ii := 0; ii < seeds; ii++ {
		caseSeed := runner.JobSeed(o.Seed+22, ii)
		crng := graph.NewRNG(caseSeed)
		k := 4
		pos, err := serve.PlaceRobots(g, "dispersed", k, crng)
		if err != nil {
			return err
		}
		inst := &gather.Scenario{G: g, IDs: gather.AssignIDs(k, g.N(), crng), Positions: pos}
		for _, arm := range arms {
			arm := arm
			m := &jobMeta{arm: arm, inst: ii}
			// Per-arm overlays share one seed across instances — the sweep
			// executors' per-instance churn contract — so an arm's rate is
			// the only thing that varies between arms.
			ovSeed := (o.Seed + 22) ^ gather.ChurnSeedSalt
			jobs = append(jobs, runner.Job{Meta: m,
				Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
					world, cap, err := inst.World(a, "uxs", 2)
					if err != nil {
						return nil, 0, err
					}
					m.cap = cap
					if arm.rate > 0 {
						if err := world.SetOverlay(a.Overlay(g, arm.rate, ovSeed)); err != nil {
							return nil, 0, err
						}
					}
					return world, cap, nil
				}})
		}
	}
	results, err := sweep(o, o.Seed+22, jobs)
	if err != nil {
		return err
	}
	for _, res := range results {
		m := res.Meta.(*jobMeta)
		r := int64(m.cap)
		if res.Res.FirstGatherRound >= 0 {
			m.arm.gather++
			r = int64(res.Res.FirstGatherRound)
		}
		if res.Res.DetectionCorrect {
			m.arm.detect++
		}
		m.arm.rounds[m.inst] = r
	}

	base := arms[0]
	tb := NewTable("churn-rate", "detect", "gathered", "mean-gather-round", "vs-static")
	meanGather := make([]float64, len(arms))
	for ai, a := range arms {
		var sum int64
		for _, r := range a.rounds {
			sum += r
		}
		meanGather[ai] = float64(sum) / float64(len(a.rounds))
		factor := meanGather[ai] / meanGather[0]
		tb.Add(fmt.Sprintf("%.2f", a.rate), fmt.Sprintf("%d/%d", a.detect, seeds),
			fmt.Sprintf("%d/%d", a.gather, seeds), fmt.Sprintf("%.0f", meanGather[ai]), factor)
	}
	tb.Render(w)
	verdict(w, base.detect == seeds && base.gather == seeds,
		"static graph (rate 0): all %d runs gather with correct detection", seeds)
	last := arms[len(arms)-1]
	verdict(w, last.gather == seeds,
		"the universal sequence survives churn: all runs still gather at rate %.2f", last.rate)
	// Direction-free on purpose: closing doors can confine robots and
	// force EARLIER meetings (a churned cycle is intermittently a path),
	// so the pinned fact is divergence, not inflation.
	verdict(w, meanGather[len(arms)-1] != meanGather[0],
		"churn is load-bearing: mean first-gather round %.0f at rate %.2f vs %.0f static",
		meanGather[len(arms)-1], last.rate, meanGather[0])
	return nil
}

// E23: the elitist worst-case hunter against uniform sampling on one
// fixed instance. Elitism makes the incumbent monotone, so the hunter's
// final worst case can never be milder than generation 0's — the PASS is
// structural — and a full replay pins reproducibility.
func runE23(w io.Writer, o Options) error {
	pop, gens := 6, 2
	if !o.Quick {
		pop, gens = 10, 3
	}
	wl, err := graph.ParseWorkload("grid:4x4")
	if err != nil {
		return err
	}
	g, err := wl.Build(graph.NewRNG(o.Seed + 23))
	if err != nil {
		return err
	}
	if err := checkCover(g, gather.Config{}); err != nil {
		return err
	}
	fs, err := fault.Parse("crash:1")
	if err != nil {
		return err
	}
	cfg := hunt.Config{
		G: g, Algo: "faster", Radius: 2, K: 4,
		Placement: "random", Sched: "full", Faults: fs,
		Population: pop, Generations: gens, Seed: o.Seed + 23,
		Parallelism: o.Parallelism,
	}
	res, err := hunt.Run(cfg)
	if err != nil {
		return err
	}
	replay, err := hunt.Run(cfg)
	if err != nil {
		return err
	}

	tb := NewTable("generation", "worst-seed", "rounds", "moves", "crashed")
	for gi, c := range res.GenBest {
		label := fmt.Sprintf("%d", gi)
		if gi == 0 {
			label = "0 (uniform)"
		}
		tb.Add(label, fmt.Sprintf("%#x", c.Seed), c.Rounds, c.Moves, c.Crashed)
	}
	tb.Render(w)
	fmt.Fprintf(w, "  evaluated %d distinct seeds (population %d x %d generations + elitist carry-over)\n",
		res.Evaluated, pop, gens+1)
	verdict(w, !hunt.Worse(res.Gen0Best, res.Best),
		"elitism: final worst case (rounds %d) is at least as bad as the uniform sample's (rounds %d)",
		res.Best.Rounds, res.Gen0Best.Rounds)
	verdict(w, replay.Best == res.Best && replay.Evaluated == res.Evaluated,
		"reproducible: an identical hunt replays to the same worst seed %#x", res.Best.Seed)
	return nil
}
