package gathering

// One benchmark per reproduction experiment (E1..E23, DESIGN.md §4), so
// `go test -bench=.` regenerates every table, plus micro-benchmarks of the
// substrates. Experiment benches run the quick sweep once per iteration
// and report rounds-derived metrics; run `cmd/experiments` for the full
// tables with verdicts.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/expt"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/uxs"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	opts := expt.Options{Quick: true, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, opts); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE01UndispersedScaling(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE02HopMeetingScaling(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE03UXSGatherScaling(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE04TheoremRegimes(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE05Lemma15Bound(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE06DistanceCases(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE07CrossoverFigure(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE08WhoWins(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE09Memory(b *testing.B)              { benchExperiment(b, "E9") }
func BenchmarkE10DetectionOverhead(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11KnownDistanceOracle(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12KnownDegreeAblation(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13BaselineBlowup(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14CostMetric(b *testing.B)          { benchExperiment(b, "E14") }
func BenchmarkE15CrashFaults(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16StartupDelays(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17MappingAblation(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18BeepingModel(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19SchedulerAblation(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20SemiSyncSlowdown(b *testing.B)    { benchExperiment(b, "E20") }
func BenchmarkE21FaultSurvival(b *testing.B)       { benchExperiment(b, "E21") }
func BenchmarkE22EdgeChurn(b *testing.B)           { benchExperiment(b, "E22") }
func BenchmarkE23WorstCaseHunter(b *testing.B)     { benchExperiment(b, "E23") }

// BenchmarkRunnerSerialVsParallel runs a representative E-series sweep
// (the E1 shape: Undispersed-Gathering across families and sizes) as one
// runner batch per iteration, serial vs all-cores. On a multi-core
// machine the parallel case should finish the batch several times faster;
// both produce bit-identical results.
func BenchmarkRunnerSerialVsParallel(b *testing.B) {
	sweepJobs := func() []runner.Job {
		fams := []graph.Family{graph.FamCycle, graph.FamGrid, graph.FamRandom, graph.FamTree, graph.FamLollipop}
		sizes := []int{8, 10, 12, 14}
		var jobs []runner.Job
		for _, fam := range fams {
			for _, n := range sizes {
				fam, n := fam, n
				jobs = append(jobs, runner.Job{Build: func(seed uint64, _ *gather.Arena) (*sim.World, int, error) {
					rng := graph.NewRNG(seed)
					g := graph.FromFamily(fam, n, rng)
					k := max(2, g.N()/2)
					sc := &gather.Scenario{G: g,
						IDs:       gather.AssignIDs(k, g.N(), rng),
						Positions: place.Clustered(g, k, max(1, k/2), rng)}
					return sc.World(nil, "undispersed", 0)
				}})
			}
		}
		return jobs
	}
	for _, workers := range []int{1, 0} { // 1 = serial reference, 0 = GOMAXPROCS
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			r := runner.New(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, _ := r.Run(42, sweepJobs())
				if err := runner.FirstErr(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the substrates ---

func BenchmarkSimStep(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := graph.NewRNG(1)
			g := graph.FromFamily(graph.FamRandom, 32, rng)
			sc := &gather.Scenario{
				G:         g,
				IDs:       gather.AssignIDs(k, g.N(), rng),
				Positions: place.Random(g, k, rng),
			}
			w, _, err := sc.World(nil, "faster", 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

// wanderer is a minimal non-allocating agent: it walks ports round-robin
// forever. BenchmarkStepHotLoop uses it so the measurement isolates the
// engine's per-round cost (snapshot, grouping, delivery, resolution) from
// any algorithm-side allocation.
type wanderer struct {
	sim.Base
	step int
}

func (a *wanderer) Decide(env *sim.Env) sim.Action {
	a.step++
	return sim.MoveAction(a.step % env.Degree)
}

// Reset implements sim.Resettable so BenchmarkWorldReset can replay the
// exact same trajectory each iteration (keeping every high-water mark
// warm).
func (a *wanderer) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.step = 0
}

// settleRuntime runs just before a zero-allocation benchmark starts its
// timer. allocs/op counts every allocation in the process, the runtime's
// own included: a collection still running when the timer starts, and
// the stop-the-world under which the timer reads the memory statistics,
// can each start a new OS thread, whose six allocations (5.5 KB) would
// count as the benchmark's. The collection here ends before the timer
// starts, and the timed loop allocates nothing, so no other one begins;
// the two reads pay for any thread a restart of the world needs, which
// is then idle, and reused, when the timer reads.
func settleRuntime() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.ReadMemStats(&ms)
}

// BenchmarkStepHotLoop measures the steady-state cost of one engine round
// on a many-robot world and reports allocs/op: the engine's contract is
// zero allocations per Step once the scratch state is warm.
func BenchmarkStepHotLoop(b *testing.B) {
	for _, k := range []int{64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := graph.NewRNG(12)
			g := graph.Grid(16, 16)
			g = g.WithPermutedPorts(rng)
			agents := make([]sim.Agent, k)
			pos := make([]int, k)
			for i := range agents {
				agents[i] = &wanderer{Base: sim.NewBase(i + 1), step: i}
				pos[i] = rng.Intn(g.N())
			}
			w, err := sim.NewWorld(g, agents, pos)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the scratch state past its high-water marks: the
			// wanderers' walk is deterministic and periodic, so after
			// enough rounds no bucket or per-robot slice grows again and
			// the measured steady state is allocation-free even at
			// -benchtime 1x.
			for i := 0; i < 2048; i++ {
				w.Step()
			}
			settleRuntime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

// BenchmarkOverlayChurnStep measures the steady-state cost of one engine
// round with a churn overlay installed: every Step now pays the overlay's
// per-round re-roll (one RNG draw per churnable edge) plus the mask check
// on every traversal. The fault layer inherits the engine's contract —
// gated in CI — of zero allocations per Step once warm, on both a
// cache-resident grid and a CSR too large for locality to come free.
func BenchmarkOverlayChurnStep(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"grid16x16", "grid:16x16"},
		{"rreg4096", "rreg:4096,4"},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := graph.NewRNG(12)
			g, err := graph.BuildWorkload(c.spec, rng)
			if err != nil {
				b.Fatal(err)
			}
			g = g.WithPermutedPorts(rng)
			const k = 64
			agents := make([]sim.Agent, k)
			pos := make([]int, k)
			for i := range agents {
				agents[i] = &wanderer{Base: sim.NewBase(i + 1), step: i}
				pos[i] = rng.Intn(g.N())
			}
			w, err := sim.NewWorld(g, agents, pos)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.SetOverlay(graph.NewOverlay(g, 0.15, 99)); err != nil {
				b.Fatal(err)
			}
			// Warm the scratch past its high-water marks, as in
			// BenchmarkStepHotLoop; the overlay itself is allocated once
			// up front and only flips bits in place per round.
			for i := 0; i < 2048; i++ {
				w.Step()
			}
			settleRuntime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

func BenchmarkUXSWalk(b *testing.B) {
	rng := graph.NewRNG(2)
	g := graph.FromFamily(graph.FamRandom, 64, rng)
	u := uxs.New(64, uxs.Scaled)
	b.ResetTimer()
	cur, entry := 0, -1
	for i := 0; i < b.N; i++ {
		p := u.NextPort(i%u.Len(), entry, g.Degree(cur))
		cur, entry = g.Neighbor(cur, p)
	}
}

func BenchmarkUXSCoverage(b *testing.B) {
	rng := graph.NewRNG(3)
	g := graph.FromFamily(graph.FamLollipop, 24, rng)
	u := uxs.New(24, uxs.Scaled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u.CoverageRounds(g, 0) < 0 {
			b.Fatal("no coverage")
		}
	}
}

func BenchmarkMapConstruction(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := graph.NewRNG(4)
			g := graph.FromFamily(graph.FamRandom, n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				finder := mapping.NewFinderAgent(1, g.N(), 2)
				token := mapping.NewTokenAgent(2, 1)
				w, err := sim.NewWorld(g, []sim.Agent{finder, token}, []int{0, 0})
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < mapping.Budget(g.N()) && !finder.B.Done(); r++ {
					w.Step()
				}
				if !finder.B.Done() {
					b.Fatal("map not finished")
				}
			}
		})
	}
}

func BenchmarkUndispersedGathering(b *testing.B) {
	for _, n := range []int{8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := graph.NewRNG(5)
			g := graph.FromFamily(graph.FamCycle, n, rng)
			rounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := &gather.Scenario{
					G:         g,
					IDs:       gather.AssignIDs(4, g.N(), rng),
					Positions: place.Clustered(g, 4, 2, rng),
				}
				res, err := sc.Run("undispersed", 0, gather.R(g.N())+2)
				if err != nil || !res.DetectionCorrect {
					b.Fatalf("failed: %v %+v", err, res)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkFasterGatheringManyRobots runs Faster-Gathering with k = n/2+1
// robots on a port-permuted 10-cycle. One op runs a fixed set of
// instances, their IDs and max-min dispersed placements drawn once up
// front, so ns/op and allocs/op measure the same work at every b.N;
// "rounds" is the set's mean simulated rounds per instance.
func BenchmarkFasterGatheringManyRobots(b *testing.B) {
	rng := graph.NewRNG(6)
	n, k := 10, 6
	g := graph.Cycle(n).WithPermutedPorts(rng)
	set := make([]*gather.Scenario, 8)
	for i := range set {
		set[i] = &gather.Scenario{
			G:         g,
			IDs:       gather.AssignIDs(k, n, rng),
			Positions: place.MaxMinDispersed(g, k, rng),
		}
	}
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds = 0
		for _, sc := range set {
			res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(n)+10)
			if err != nil || !res.DetectionCorrect {
				b.Fatalf("failed: %v %+v", err, res)
			}
			rounds += res.Rounds
		}
	}
	b.ReportMetric(float64(rounds)/float64(len(set)), "rounds")
}

func BenchmarkGraphBFS(b *testing.B) {
	rng := graph.NewRNG(7)
	g := graph.FromFamily(graph.FamRandom, 256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSDistances(i % g.N())
	}
}

func BenchmarkDFSEnumDepth3(b *testing.B) {
	rng := graph.NewRNG(8)
	g := graph.FromFamily(graph.FamRandom, 16, rng)
	sc := &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, 1}}
	dur := sc.Cfg.HopDuration(3, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sc.Run("hopmeet", 3, dur+1)
		if err != nil || !res.AllTerminated {
			b.Fatal("hop meet failed")
		}
	}
}

func BenchmarkAdversarialPlacement(b *testing.B) {
	rng := graph.NewRNG(9)
	g := graph.FromFamily(graph.FamGrid, 100, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place.MaxMinDispersed(g, 10, rng)
	}
}

func BenchmarkMapConstructionNaiveVsTour(b *testing.B) {
	// The E17 ablation as a micro-benchmark: same graph, both builders.
	rng := graph.NewRNG(10)
	g := graph.Cycle(16)
	g = g.WithPermutedPorts(rng)
	run := func(b *testing.B, naive bool) {
		for i := 0; i < b.N; i++ {
			var (
				agents []sim.Agent
				done   func() bool
			)
			if naive {
				f := mapping.NewNaiveFinderAgent(1, g.N(), 2)
				agents = []sim.Agent{f, mapping.NewTokenAgent(2, 1)}
				done = f.B.Done
			} else {
				f := mapping.NewFinderAgent(1, g.N(), 2)
				agents = []sim.Agent{f, mapping.NewTokenAgent(2, 1)}
				done = f.B.Done
			}
			w, err := sim.NewWorld(g, agents, []int{0, 0})
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < mapping.NaiveBudget(g.N()) && !done(); r++ {
				w.Step()
			}
			if !done() {
				b.Fatal("map not finished")
			}
		}
	}
	b.Run("tour", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}

func BenchmarkBeepGathering(b *testing.B) {
	rng := graph.NewRNG(11)
	g := graph.FromFamily(graph.FamCycle, 7, rng)
	sc := &gather.Scenario{G: g, IDs: []int{5, 12}, Positions: []int{0, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(g.N())+2)
		if err != nil || !res.DetectionCorrect {
			b.Fatalf("beep run failed: %v %+v", err, res)
		}
	}
}

// BenchmarkNeighborWalk measures the raw cost of the graph hot path —
// Neighbor/Degree lookups along an endless rotor walk — on frozen CSR
// graphs of increasing size. This is the operation every robot performs
// every round; the CSR layout (one flat half-edge array + offsets) buys
// its locality win here versus the old slice-of-slices adjacency.
func BenchmarkNeighborWalk(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"torus32x32", "torus:32x32"},
		{"torus128x128", "torus:128x128"},
		{"rreg4096", "rreg:4096,4"},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := graph.BuildWorkload(c.spec, graph.NewRNG(3))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cur, port := 0, 0
			for i := 0; i < b.N; i++ {
				v, rev := g.Neighbor(cur, port)
				cur = v
				port = rev + 1
				if port >= g.Degree(cur) {
					port = 0
				}
			}
		})
	}
}

// BenchmarkWorldReset measures the pooled-sweep reset path: rewinding a
// dirty world (plus its Resettable agents) back to round zero. The
// engine's contract — gated in CI — is zero allocations per reset once
// shapes match: a pooled sweep's per-job engine cost is exactly this.
func BenchmarkWorldReset(b *testing.B) {
	for _, k := range []int{32, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := graph.NewRNG(15)
			g := graph.Grid(16, 16).WithPermutedPorts(rng)
			agents := make([]sim.Agent, k)
			pos := make([]int, k)
			for i := range agents {
				agents[i] = &wanderer{Base: sim.NewBase(i + 1)}
				pos[i] = rng.Intn(g.N())
			}
			w, err := sim.NewWorld(g, agents, pos)
			if err != nil {
				b.Fatal(err)
			}
			// Warm every high-water mark, then measure reset+step cycles:
			// the Step keeps the world dirty so each Reset does real work,
			// and resetting the agents too makes every iteration replay the
			// same (pre-warmed) round-zero trajectory. The Resettable
			// views are taken before the timer: the runtime builds a
			// 48-byte cache for an interface-to-interface assertion site
			// on about one call in 1024, and allocs/op would count it.
			for i := 0; i < 1024; i++ {
				w.Step()
			}
			resettable := make([]sim.Resettable, k)
			for i, a := range agents {
				resettable[i] = a.(sim.Resettable)
			}
			settleRuntime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range resettable {
					a.Reset(a.ID())
				}
				if err := w.Reset(agents, pos); err != nil {
					b.Fatal(err)
				}
				w.Step()
			}
		})
	}
}

// BenchmarkSweepPooledWorld pins the payoff of the pooled-execution
// layer: the identical 64-job batch (k-robot UXS gathering on one shared
// frozen graph, 8 rounds each — the UXS agents' rounds are themselves
// allocation-free, so the measurement isolates per-job SETUP cost) run
// with a fresh World + agent set per job ("rebuild": World(nil, …))
// versus the per-worker arenas ("pooled", every job after a worker's
// first reusing its world and agents via Reset). allocs/op is per batch;
// results are bit-identical between the arms. CI gates the >= 5x per-job
// allocation win.
func BenchmarkSweepPooledWorld(b *testing.B) {
	const (
		jobs     = 64
		k        = 32
		rounds   = 8
		wlSpec   = "torus:16x16"
		baseSeed = uint64(33)
	)
	g, err := graph.BuildWorkload(wlSpec, graph.NewRNG(baseSeed))
	if err != nil {
		b.Fatal(err)
	}
	shared := &gather.Scenario{G: g}
	buildJobs := func(pooled bool) []runner.Job {
		out := make([]runner.Job, jobs)
		for i := range out {
			out[i] = runner.Job{Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				job := *shared
				job.IDs = gather.AssignIDs(k, job.G.N(), rng)
				job.Positions = place.Clustered(job.G, k, k/2, rng)
				if !pooled {
					a = nil // build fresh
				}
				w, _, err := job.World(a, "uxs", 0)
				return w, rounds, err
			}}
		}
		return out
	}
	run := func(b *testing.B, pooled bool) {
		r := runner.New(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, _ := r.Run(baseSeed, buildJobs(pooled))
			if err := runner.FirstErr(results); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rebuild", func(b *testing.B) { run(b, false) })
	b.Run("pooled", func(b *testing.B) { run(b, true) })
}

// BenchmarkSweepSharedGraph pins the payoff of shared-graph sweeps: the
// same 64-job batch (k-robot Undispersed-Gathering, 8 rounds each) run
// with per-job graph construction ("rebuild", the pre-freeze pattern)
// versus every job referencing one frozen graph ("shared", zero per-job
// graph work). The rebuild arm measures per-job graph build only: T comes
// from n, so no job walks a coverage check. allocs/op is per batch.
func BenchmarkSweepSharedGraph(b *testing.B) {
	const (
		jobs     = 64
		k        = 32
		rounds   = 8
		wlSpec   = "torus:16x16"
		baseSeed = uint64(21)
	)
	buildJobs := func(shared *gather.Scenario) []runner.Job {
		out := make([]runner.Job, jobs)
		for i := range out {
			out[i] = runner.Job{Build: func(seed uint64, _ *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				sc := shared
				if sc == nil { // rebuild arm: graph per job
					g, err := graph.BuildWorkload(wlSpec, graph.NewRNG(baseSeed))
					if err != nil {
						return nil, 0, err
					}
					sc = &gather.Scenario{G: g}
				}
				job := *sc
				job.IDs = gather.AssignIDs(k, job.G.N(), rng)
				job.Positions = place.Clustered(job.G, k, k/2, rng)
				w, _, err := job.World(nil, "undispersed", 0)
				return w, rounds, err
			}}
		}
		return out
	}
	r := runner.New(0)
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, _ := r.Run(baseSeed, buildJobs(nil))
			if err := runner.FirstErr(results); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		g, err := graph.BuildWorkload(wlSpec, graph.NewRNG(baseSeed))
		if err != nil {
			b.Fatal(err)
		}
		shared := &gather.Scenario{G: g}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, _ := r.Run(baseSeed, buildJobs(shared))
			if err := runner.FirstErr(results); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildDirect pins the tentpole payoff of the direct-to-CSR
// assembly path on the million-node smoke workload (hypercube dimension
// 20: n=2^20 nodes, m=10*2^20 edges). "direct" is the production
// Hypercube generator, which writes half-edges straight into the final
// flat arrays from the known uniform degree; "buffered" drives the
// identical edge sequence through the legacy per-node adjacency Builder.
// Both freeze bit-identical graphs (TestDirectMatchesBuffered); CI gates
// the >= 10x allocation win with benchgate.awk mode=ratio.
func BenchmarkBuildDirect(b *testing.B) {
	const dim = 20
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := graph.Hypercube(dim); g.N() != 1<<dim {
				b.Fatalf("bad shape: %v", g)
			}
		}
	})
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := graph.NewBuilder(1 << dim)
			for u := 0; u < 1<<dim; u++ {
				for bit := 0; bit < dim; bit++ {
					if v := u ^ (1 << bit); u < v {
						bld.MustEdge(u, v)
					}
				}
			}
			if g := bld.Freeze(); g.N() != 1<<dim {
				b.Fatalf("bad shape: %v", g)
			}
		}
	})
}

// heapLive returns the bytes of live heap objects after a full
// collection; deltas between calls measure the retained footprint of
// whatever was built in between.
func heapLive() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// footprintWorld builds a k-robot world of wanderers on g and steps it
// once, so the round scratch is materialized and counts toward the
// retained footprint.
func footprintWorld(b *testing.B, g *graph.Graph, k int, seed uint64) *sim.World {
	b.Helper()
	rng := graph.NewRNG(seed)
	agents := make([]sim.Agent, k)
	pos := make([]int, k)
	for i := range agents {
		agents[i] = &wanderer{Base: sim.NewBase(i + 1)}
		pos[i] = rng.Intn(g.N())
	}
	w, err := sim.NewWorld(g, agents, pos)
	if err != nil {
		b.Fatal(err)
	}
	w.Step()
	return w
}

// BenchmarkMemoryFootprint reports the retained memory of the
// million-node substrate on the hypercube:20 smoke workload as two ledger
// metrics: B/node — the per-node cost of the frozen CSR graph plus the
// world's node-indexed state (the occupancy slot table) — and B/robot —
// the marginal cost of one extra robot, computed from worlds of 64 and
// 512 robots so every O(n) term cancels. The ledger gates both with a
// tight factor: a regression means a pointer-per-node or
// header-per-robot structure crept back into the engine.
func BenchmarkMemoryFootprint(b *testing.B) {
	const (
		dim    = 20
		k1, k2 = 64, 512
	)
	var bNode, bRobot float64
	for i := 0; i < b.N; i++ {
		before := heapLive()
		g := graph.Hypercube(dim)
		afterGraph := heapLive()
		w1 := footprintWorld(b, g, k1, 7)
		afterW1 := heapLive()
		w2 := footprintWorld(b, g, k2, 8)
		afterW2 := heapLive()
		world1 := float64(afterW1 - afterGraph)
		world2 := float64(afterW2 - afterW1)
		bRobot = (world2 - world1) / float64(k2-k1)
		bNode = (float64(afterGraph-before) + world1 - bRobot*float64(k1)) / float64(g.N())
		runtime.KeepAlive(w1)
		runtime.KeepAlive(w2)
	}
	b.ReportMetric(bNode, "B/node")
	b.ReportMetric(bRobot, "B/robot")
}
