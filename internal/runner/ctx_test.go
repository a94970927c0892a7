package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// assertCanceled checks one retired result slot: index and seed intact,
// error wrapping context.Canceled so callers can branch with errors.Is.
func assertCanceled(t *testing.T, res JobResult, base uint64, i int) {
	t.Helper()
	if res.Index != i || res.Seed != JobSeed(base, i) {
		t.Errorf("job %d: retired slot has index %d seed %#x, want %d %#x", i, res.Index, res.Seed, i, JobSeed(base, i))
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("job %d: err = %v, want wrapped context.Canceled", i, res.Err)
	}
}

// TestRunCtxPreCanceled pins the drain contract: a batch submitted on an
// already-dead context produces one canceled result per job — no holes,
// no execution — and the stats count every job as failed.
func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Build: func(uint64) (*sim.World, int, error) {
			t.Error("canceled batch executed a job")
			return nil, 0, nil
		}}
	}
	results, st := New(3).RunCtx(ctx, 7, jobs)
	if len(results) != len(jobs) || st.Jobs != len(jobs) || st.Failed != len(jobs) {
		t.Fatalf("results %d, stats %+v; want %d results all failed", len(results), st, len(jobs))
	}
	for i, res := range results {
		assertCanceled(t, res, 7, i)
	}
}

// TestRunCtxMidRunCancel cancels from inside the first job on a
// single-worker pool: the in-flight job runs to completion (cancellation
// is prompt at job granularity, never mid-world), every later job is
// retired canceled.
func TestRunCtxMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job, 4)
	jobs[0] = Job{Build: func(uint64) (*sim.World, int, error) {
		cancel() // the batch's caller gives up while job 0 executes
		return nil, 0, nil
	}}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = Job{Build: func(uint64) (*sim.World, int, error) {
			t.Error("job after cancellation executed")
			return nil, 0, nil
		}}
	}
	results, st := New(1).RunCtx(ctx, 3, jobs)
	if results[0].Err != nil || !results[0].Skipped {
		t.Fatalf("in-flight job 0 = %+v, want completed (skipped, no error)", results[0])
	}
	for i := 1; i < len(jobs); i++ {
		assertCanceled(t, results[i], 3, i)
	}
	if st.Failed != len(jobs)-1 || st.Skipped != 1 {
		t.Fatalf("stats %+v, want %d failed and 1 skipped", st, len(jobs)-1)
	}
}

// TestRunCtxBackgroundMatchesRun pins that the context hook is free when
// unused: RunCtx on a background context is bit-identical to Run.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	jobs := gatherJobs(8)
	ref, _ := New(2).Run(11, jobs)
	got, _ := New(2).RunCtx(context.Background(), 11, jobs)
	if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
		t.Fatal("RunCtx(Background) differs from Run on identical jobs")
	}
}
