package gather

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// The cross-engine golden suite: one hash per algorithm over every Result
// field of a fixed grid of instances (3 graph families x 5 seeds). The
// hashes below were captured from the pre-refactor monolithic engine
// (commit b824906, single sort.Slice-based World.Step); the refactored
// occupancy-index + scheduler-pipeline engine must reproduce them
// bit-for-bit under the default FullSync scheduler.
//
// Regenerate with:
//
//	GOLDEN_PRINT=1 go test ./internal/gather -run TestEngineGolden -v
var engineGolden = map[string]uint64{
	"faster":      0x5460a2d079efdc8,
	"uxs":         0xeb3055db752c7741,
	"undispersed": 0x9fa1a3138721626a,
	"hopmeet":     0xd8a18ddfe1f4e658,
}

// goldenInstances yields the fixed instance grid. Families and sizes are
// chosen so every algorithm's full run fits comfortably in test time.
func goldenInstances(algo string) []*Scenario {
	fams := []graph.Family{graph.FamCycle, graph.FamGrid, graph.FamRandom}
	var out []*Scenario
	for fi, fam := range fams {
		for seed := uint64(1); seed <= 5; seed++ {
			n := 8
			if algo == "faster" || algo == "uxs" {
				n = 10
			}
			rng := graph.NewRNG(seed*1000 + uint64(fi))
			g := graph.FromFamily(fam, n, rng)
			k := 4
			if algo == "beep" {
				k = 2 // the beeping model's two-robot setting
			}
			sc := &Scenario{
				G:         g,
				IDs:       AssignIDs(k, g.N(), rng),
				Positions: place.Clustered(g, k, 2, rng),
			}
			out = append(out, sc)
		}
	}
	return out
}

// runGolden executes one algorithm (hopmeet at radius 2) on one instance
// with its derived cap.
func runGolden(t *testing.T, sc *Scenario, algo string) sim.Result {
	t.Helper()
	res, err := sc.Run(algo, 2, 0)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res
}

// hashResult folds every Result field into the running FNV-1a hash, so any
// behavioural drift in the engine (round counts, movement, detection
// verdicts, final placement) changes the golden value.
func hashResult(h interface{ Write([]byte) (int, error) }, res sim.Result) {
	fmt.Fprintf(h, "r=%d t=%v g=%v d=%v fg=%d fm=%d tm=%d mm=%d c=%d p=%v;",
		res.Rounds, res.AllTerminated, res.Gathered, res.DetectionCorrect,
		res.FirstGatherRound, res.FirstMeetRound, res.TotalMoves, res.MaxMoves,
		res.Crashed, res.FinalPositions)
}

// A full algorithm run under a stateful scheduler must be a pure
// function of its seeds: rebuilding the identical scenario + scheduler
// replays the identical run.
func TestSchedulerRunsDeterministic(t *testing.T) {
	run := func(t *testing.T, spec string) sim.Result {
		rng := graph.NewRNG(7)
		g := graph.FromFamily(graph.FamCycle, 8, rng)
		sc := &Scenario{G: g, IDs: AssignIDs(2, g.N(), rng), Positions: place.RandomDispersed(g, 2, rng)}
		sched, err := sim.ParseScheduler(spec, 123)
		if err != nil {
			t.Fatal(err)
		}
		sc.Sched = sched
		res, err := sc.Run("dessmark", 0, 4*(sc.Cfg.FasterBound(g.N())+10))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, spec := range []string{"semi:0.6", "adv:2"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			a, b := run(t, spec), run(t, spec)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("same seeds, different runs under %s:\n%+v\n%+v", spec, a, b)
			}
			if !a.DetectionCorrect {
				t.Errorf("dessmark under %s not detection-correct: %+v", spec, a)
			}
		})
	}
}

// buildGoldenWorldIn builds an algorithm's world (hopmeet at radius 2) in
// the arena and returns it with its round cap: the single builder behind
// every pooled golden check (a nil arena builds fresh). dessmark gets 4x
// its cap, room for the stretch of semi-sync and adversarial schedulers.
func buildGoldenWorldIn(t *testing.T, sc *Scenario, algo string, a *Arena) (*sim.World, int) {
	t.Helper()
	w, cap, err := sc.World(a, algo, 2)
	if err != nil {
		t.Fatalf("%s pooled build: %v", algo, err)
	}
	if algo == "dessmark" {
		cap *= 4
	}
	return w, cap
}

// runGoldenIn is runGolden through the pooled arena path: the world is
// built in (and, on repeated calls with matching shapes, Reset inside) the
// given arena instead of freshly constructed.
func runGoldenIn(t *testing.T, sc *Scenario, algo string, a *Arena) sim.Result {
	t.Helper()
	w, cap := buildGoldenWorldIn(t, sc, algo, a)
	return w.Run(cap)
}

// The pooled-execution counterpart of TestEngineGoldenFullSync: every
// golden instance runs TWICE through one long-lived arena per algorithm —
// the second run re-enters a world the first run dirtied (via World.Reset
// and the agents' Resettable.Reset whenever the instance shape repeats) —
// and the second runs must hash to the exact same golden values as fresh
// construction. Any pooling state leak shifts the hash.
func TestEngineGoldenPooledReset(t *testing.T) {
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			arena := NewArena()
			h := fnv.New64a()
			for _, sc := range goldenInstances(algo) {
				first := runGoldenIn(t, sc, algo, arena)
				second := runGoldenIn(t, sc, algo, arena) // Reset path: same shape, dirty world
				if fmt.Sprint(first) != fmt.Sprint(second) {
					t.Fatalf("pooled rerun diverged:\nfirst:  %+v\nsecond: %+v", first, second)
				}
				hashResult(h, second)
			}
			if got, want := h.Sum64(), engineGolden[algo]; got != want {
				t.Errorf("pooled engine drift: %s hash = %#x, want %#x (a Reset world no longer matches fresh construction)", algo, got, want)
			}
		})
	}
}

// runOutcome runs one golden instance in the arena (nil = fresh) and
// returns its printable outcome: the result, or the contained panic error.
func runOutcome(t *testing.T, sc *Scenario, algo string, a *Arena) string {
	t.Helper()
	w, cap := buildGoldenWorldIn(t, sc, algo, a)
	res, err := w.SafeRun(cap)
	return fmt.Sprintf("%+v err=%v", res, err)
}

// Pooled execution must match fresh execution under every scheduler, for
// every algorithm — including the runs that legitimately crash outside
// the synchronous model (the outcome, result or panic message, must be
// identical too).
func TestPooledMatchesFreshAcrossSchedulers(t *testing.T) {
	outcome := func(sc *Scenario, algo string, a *Arena) string {
		return runOutcome(t, sc, algo, a)
	}
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet", "dessmark", "beep"} {
		for _, spec := range []string{"full", "semi:0.6", "adv:2"} {
			algo, spec := algo, spec
			t.Run(algo+"/"+spec, func(t *testing.T) {
				arena := NewArena()
				for i, sc := range goldenInstances(algo)[:6] {
					mkSched := func() sim.Scheduler {
						sched, err := sim.ParseScheduler(spec, 1234+uint64(i))
						if err != nil {
							t.Fatal(err)
						}
						return sched
					}
					fresh := outcome(sc.WithScheduler(mkSched()), algo, nil)
					// Warm the arena on this shape, then compare the Reset
					// rerun against the fresh run (schedulers are per-run
					// stateful, so each run gets its own instance).
					outcome(sc.WithScheduler(mkSched()), algo, arena)
					pooled := outcome(sc.WithScheduler(mkSched()), algo, arena)
					if fresh != pooled {
						t.Fatalf("instance %d: pooled run under %s diverged from fresh:\nfresh:  %s\npooled: %s", i, spec, fresh, pooled)
					}
				}
			})
		}
	}
}

// TestBatchHeterogeneousAlgorithms runs one worker's batch of mixed jobs
// through one Arena: algorithms and schedulers change from job to
// job, so the arena keeps switching shape, and semi-sync or adversarial
// jobs may legitimately panic mid-run and leave a dirty world behind.
// Every job must reproduce its fresh scalar run exactly, whatever ran on
// the worker before it.
func TestBatchHeterogeneousAlgorithms(t *testing.T) {
	jobs := []struct{ algo, sched string }{
		{"faster", "full"},
		{"faster", "semi:0.6"},
		{"faster", "full"},
		{"uxs", "full"},
		{"hopmeet", "adv:2"},
		{"undispersed", "full"},
		{"dessmark", "semi:0.6"},
		{"faster", "adv:2"},
		{"faster", "full"},
	}
	arena := NewArena()
	for i, sc := range goldenInstances("faster")[:3] {
		for j, job := range jobs {
			mkSched := func() sim.Scheduler {
				sched, err := sim.ParseScheduler(job.sched, 1234+uint64(i*len(jobs)+j))
				if err != nil {
					t.Fatal(err)
				}
				return sched
			}
			fresh := runOutcome(t, sc.WithScheduler(mkSched()), job.algo, nil)
			pooled := runOutcome(t, sc.WithScheduler(mkSched()), job.algo, arena)
			if fresh != pooled {
				t.Fatalf("instance %d job %d (%s under %s) diverged in the batch:\nfresh:  %s\npooled: %s", i, j, job.algo, job.sched, fresh, pooled)
			}
		}
	}
}

func TestEngineGoldenFullSync(t *testing.T) {
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			h := fnv.New64a()
			for _, sc := range goldenInstances(algo) {
				hashResult(h, runGolden(t, sc, algo))
			}
			got := h.Sum64()
			if os.Getenv("GOLDEN_PRINT") != "" {
				t.Logf("golden %q: %#x", algo, got)
				return
			}
			want, ok := engineGolden[algo]
			if !ok {
				t.Fatalf("no golden hash recorded for %q", algo)
			}
			if got != want {
				t.Errorf("engine drift: %s hash = %#x, want %#x (the refactored engine no longer matches the seed engine bit-for-bit)", algo, got, want)
			}
		})
	}
}
