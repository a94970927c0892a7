// Package runner is the sharded parallel scenario-execution engine: a
// bounded worker pool that runs batches of independent simulator worlds
// concurrently and returns their results in submission order.
//
// Determinism is the design center. Every job receives a seed derived
// purely from the batch's base seed and the job's submission index
// (base ^ splitmix64(index)), never from scheduling order, so a batch
// produces bit-identical results whether it runs on one worker or many.
// Jobs must build all randomness from that seed (or from state captured
// before submission) and must not share mutable state. Frozen
// graph.Graphs are deeply immutable and may be shared freely: the
// preferred sweep shape builds the instance (graph, IDs, positions,
// config) once before submission and references it from every job,
// constructing only the per-run world — and, via Scenario.WithScheduler,
// a per-run scheduler — inside Build.
//
// Every worker owns one gather.Arena and hands it to each Job.Build it
// executes, so a job that builds its world with Scenario.World in that
// arena reuses one long-lived world per worker — rewound with
// World.Reset — instead of reconstructing it. The arena is an allocation
// pool only: results must never depend on it.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gather"
	"repro/internal/sim"
)

// Job is one unit of work: Build constructs a simulator world and its
// round cap from the job's deterministic seed; the runner then executes
// World.Run(cap). Build runs on a worker goroutine, so any randomness it
// needs must come from the seed argument and any captured state must be
// read-only or owned by this job alone.
//
// Build also receives the executing worker's arena (never nil), which it
// may build its world in (Scenario.World) instead of allocating a fresh
// one, or ignore. Which jobs share an arena depends on scheduling, so the
// job's RESULT must be a function of its seed and captured read-only data
// alone, never of what previous jobs left in the arena.
//
// Build may return a nil world (with a nil error) for a pure-compute or
// skipped job: the runner records a zero Result and moves on, which lets
// sweep loops keep one code path for iterations that have nothing to
// simulate (e.g. no node pair at the requested distance).
type Job struct {
	Build func(seed uint64, a *gather.Arena) (*sim.World, int, error)
	// Stop, when non-nil, is an extra termination predicate checked
	// between rounds: the run ends as soon as it returns true, before
	// the cap and before all agents terminate. Sweeps over agents that
	// never issue Terminate (e.g. standalone map builders) stop on
	// their own completion signal this way. Build always runs first on
	// the same goroutine, so Stop may read state Build created.
	Stop func(w *sim.World) bool
	Meta any // caller-owned context, echoed back on the JobResult
}

// JobResult pairs a job's outcome with its submission index and seed.
type JobResult struct {
	Index   int
	Seed    uint64
	Meta    any
	Res     sim.Result
	Err     error
	Stack   string // goroutine stack captured when the job panicked
	Skipped bool   // Build returned no world: nothing was simulated
	Elapsed time.Duration
}

// Stats aggregates a finished batch.
type Stats struct {
	Jobs    int
	Skipped int
	Failed  int
	Workers int           // worker goroutines the batch ran on
	Rounds  int64         // total simulated rounds across the batch
	Stepped int64         // rounds the engine executed; the rest were jumped as quiet
	Moves   int64         // total edge traversals across the batch
	Wall    time.Duration // batch wall time
	// Work is the sum of per-job wall times. On an otherwise idle
	// multi-core machine Work/Wall approximates the effective worker
	// count; with more workers than cores, per-job times are inflated
	// by scheduler interleaving, so the ratio overstates the speedup.
	Work time.Duration
}

// Runner executes job batches on a bounded worker pool.
type Runner struct {
	workers int
}

// New returns a runner with the given worker count; workers <= 0 selects
// GOMAXPROCS. New(1) is the serial reference executor: batches run on it
// exactly as the pre-runner inline loops did.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// splitmix64 is the SplitMix64 finalizer: a bijective scrambler whose
// outputs for consecutive inputs are statistically independent, which is
// what makes index-derived seeds safe to hand to independent RNG streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// JobSeed derives the deterministic seed of the i-th job of a batch with
// the given base seed. Exposed so callers can reproduce a single job of a
// sweep in isolation.
func JobSeed(base uint64, i int) uint64 { return base ^ splitmix64(uint64(i)) }

// Run executes the batch and returns per-job results in submission order
// plus aggregate stats. Errors do not abort the batch: each job's error
// is recorded on its own JobResult so the caller sees every failure of a
// sweep, not just the first.
func (r *Runner) Run(base uint64, jobs []Job) ([]JobResult, Stats) {
	return r.RunCtx(context.Background(), base, jobs)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, workers
// stop executing and every not-yet-started job is retired with a canceled
// error (wrapping ctx's error, so errors.Is(err, context.Canceled) works).
// Jobs already executing run to completion — the engine's worlds have no
// preemption points, and a half-stepped world must never surface as a
// result — so cancellation is prompt at job granularity, exact at the
// batch boundary: the returned slice always has one entry per job, never
// a hole. Results produced before the cancellation are real and reported
// as usual.
func (r *Runner) RunCtx(ctx context.Context, base uint64, jobs []Job) ([]JobResult, Stats) {
	results := make([]JobResult, len(jobs))
	start := time.Now()

	var next int64
	var wg sync.WaitGroup
	workers := r.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := gather.NewArena()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = canceledResult(base, i, jobs[i], err)
					continue // drain: every remaining index gets a result
				}
				results[i] = runOne(base, i, jobs[i], arena)
			}
		}()
	}
	wg.Wait()
	st := collectStats(results, time.Since(start))
	st.Workers = workers
	return results, st
}

// canceledResult retires a job that never ran because its batch's context
// was canceled first.
func canceledResult(base uint64, i int, j Job, cause error) JobResult {
	return JobResult{
		Index: i,
		Seed:  JobSeed(base, i),
		Meta:  j.Meta,
		Err:   fmt.Errorf("runner: job %d canceled: %w", i, cause),
	}
}

// collectStats aggregates a finished batch's results.
func collectStats(results []JobResult, wall time.Duration) Stats {
	st := Stats{Jobs: len(results), Wall: wall}
	for i := range results {
		res := &results[i]
		st.Work += res.Elapsed
		switch {
		case res.Err != nil:
			st.Failed++
		case res.Skipped:
			st.Skipped++
		default:
			st.Rounds += int64(res.Res.Rounds)
			st.Stepped += int64(res.Res.Stepped)
			st.Moves += res.Res.TotalMoves
		}
	}
	return st
}

// FirstErr returns the error of the earliest-submitted failed job, or nil.
func FirstErr(results []JobResult) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

func runOne(base uint64, i int, j Job, arena *gather.Arena) JobResult {
	out := JobResult{Index: i, Seed: JobSeed(base, i), Meta: j.Meta}
	t0 := time.Now()
	func() {
		// A panicking job must not take down the worker pool (or, in a
		// worker goroutine, the whole process). Algorithms legitimately
		// panic when run outside their model — e.g. map construction
		// under a non-synchronous scheduler — so a panic is recorded as
		// this job's error and the sweep continues. The stack travels
		// separately on JobResult.Stack: the one-line error stays
		// deterministic and diffable, while a genuine engine regression
		// remains locatable.
		defer func() {
			if r := recover(); r != nil {
				out.Err = fmt.Errorf("runner: job %d panicked: %v", i, r)
				out.Stack = string(debug.Stack())
			}
		}()
		if j.Build == nil {
			out.Err = fmt.Errorf("runner: job %d has no Build", i)
			return
		}
		w, cap, err := j.Build(out.Seed, arena)
		switch {
		case err != nil:
			out.Err = err
		case w == nil:
			out.Skipped = true
		case j.Stop == nil:
			out.Res = w.Run(cap)
		default:
			for w.Round() < cap && !w.AllDone() && !j.Stop(w) {
				w.Step()
			}
			out.Res = w.Summary()
		}
	}()
	out.Elapsed = time.Since(t0)
	return out
}
