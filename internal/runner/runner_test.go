package runner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// gatherJobs builds a representative sweep: k-robot Faster-Gathering on
// seed-permuted cycles of varying size, all randomness derived from the
// per-job seed.
func gatherJobs(count int) []Job {
	jobs := make([]Job, count)
	for i := 0; i < count; i++ {
		n := 8 + 2*(i%3)
		jobs[i] = Job{
			Meta: n,
			Build: func(seed uint64) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.Cycle(n)
				g = g.WithPermutedPorts(rng)
				k := n/2 + 1
				sc := &gather.Scenario{
					G:         g,
					IDs:       gather.AssignIDs(k, n, rng),
					Positions: place.MaxMinDispersed(g, k, rng),
				}
				w, err := sc.NewFasterWorld()
				return w, sc.Cfg.FasterBound(n) + 10, err
			},
		}
	}
	return jobs
}

// stripTiming removes the wall-clock fields, which legitimately vary
// between runs; everything else must be bit-identical.
func stripTiming(results []JobResult) []JobResult {
	out := append([]JobResult(nil), results...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const base = 42
	ref, refStats := New(1).Run(base, gatherJobs(12))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, _ := New(workers).Run(base, gatherJobs(12))
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("workers=%d: results differ from serial reference", workers)
		}
	}
	if refStats.Rounds == 0 || refStats.Moves == 0 {
		t.Errorf("stats empty: %+v", refStats)
	}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	jobs := gatherJobs(20)
	results, st := New(4).Run(7, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("position %d holds job %d", i, r.Index)
		}
		if r.Seed != JobSeed(7, i) {
			t.Errorf("job %d: seed %#x, want %#x", i, r.Seed, JobSeed(7, i))
		}
		if want := jobs[i].Meta.(int); r.Meta.(int) != want {
			t.Errorf("job %d: meta %v, want %v", i, r.Meta, want)
		}
		if r.Err != nil || !r.Res.DetectionCorrect {
			t.Errorf("job %d failed: err=%v res=%+v", i, r.Err, r.Res)
		}
	}
	if st.Jobs != 20 || st.Failed != 0 || st.Skipped != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestJobSeedsDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 10000; i++ {
		s := JobSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("jobs %d and %d share seed %#x", j, i, s)
		}
		seen[s] = i
	}
}

func TestErrorsAndSkipsRecordedPerJob(t *testing.T) {
	jobs := []Job{
		{Build: func(uint64) (*sim.World, int, error) { return nil, 0, fmt.Errorf("boom 0") }},
		{Build: func(uint64) (*sim.World, int, error) { return nil, 0, nil }}, // pure-compute skip
		gatherJobs(1)[0],
		{Build: func(uint64) (*sim.World, int, error) { return nil, 0, fmt.Errorf("boom 3") }},
	}
	results, st := New(4).Run(1, jobs)
	if results[0].Err == nil || results[3].Err == nil {
		t.Error("job errors not recorded")
	}
	if !results[1].Skipped || results[1].Err != nil {
		t.Errorf("skip not recorded: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Skipped {
		t.Errorf("good job mis-recorded: %+v", results[2])
	}
	if err := FirstErr(results); err == nil || err.Error() != "boom 0" {
		t.Errorf("FirstErr = %v, want boom 0", err)
	}
	if st.Failed != 2 || st.Skipped != 1 {
		t.Errorf("stats %+v", st)
	}
}

// sharedGraphJobs builds a batch in which every job references ONE frozen
// graph and scenario skeleton: only worlds (and per-job placements) are
// constructed inside Build. This is the shared-graph sweep shape the
// immutable CSR layout exists for.
func sharedGraphJobs(sc *gather.Scenario, count int) []Job {
	jobs := make([]Job, count)
	for i := range jobs {
		jobs[i] = Job{Build: func(seed uint64) (*sim.World, int, error) {
			jrng := graph.NewRNG(seed)
			job := *sc // shallow copy: same frozen graph, per-job placement
			job.Positions = place.MaxMinDispersed(sc.G, len(sc.IDs), jrng)
			w, err := job.NewFasterWorld()
			return w, job.Cfg.FasterBound(sc.G.N()) + 10, err
		}}
	}
	return jobs
}

// TestSharedFrozenGraphAcrossWorkers is the data-race proof for graph
// sharing: many concurrent jobs run full simulations against one frozen
// *graph.Graph (this test is meaningful under -race, which CI runs), and
// the results must be bit-identical to the serial reference.
func TestSharedFrozenGraphAcrossWorkers(t *testing.T) {
	rng := graph.NewRNG(9)
	g, err := graph.BuildWorkload("rreg:12,3", rng)
	if err != nil {
		t.Fatal(err)
	}
	sc := &gather.Scenario{G: g, IDs: gather.AssignIDs(5, g.N(), rng)}

	ref, _ := New(1).Run(11, sharedGraphJobs(sc, 24))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	got, _ := New(8).Run(11, sharedGraphJobs(sc, 24))
	if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
		t.Error("shared-graph batch differs between 1 and 8 workers")
	}
	for i, r := range got {
		if r.Err != nil || !r.Res.DetectionCorrect {
			t.Fatalf("job %d on shared graph failed: err=%v res=%+v", i, r.Err, r.Res)
		}
	}
	// The shared graph must be untouched by 24 concurrent runs.
	if err := g.Validate(); err != nil {
		t.Fatalf("shared graph corrupted: %v", err)
	}
}

// pooledGatherJobs is gatherJobs written against the pooled path: every
// job builds its world in the executing worker's arena via BuildIn.
func pooledGatherJobs(count int) []Job {
	jobs := make([]Job, count)
	for i := 0; i < count; i++ {
		n := 8 + 2*(i%3)
		jobs[i] = Job{
			Meta: n,
			BuildIn: func(seed uint64, state any) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.Cycle(n)
				g = g.WithPermutedPorts(rng)
				k := n/2 + 1
				sc := &gather.Scenario{
					G:         g,
					IDs:       gather.AssignIDs(k, n, rng),
					Positions: place.MaxMinDispersed(g, k, rng),
				}
				w, err := sc.NewFasterWorldIn(gather.ArenaOf(state))
				return w, sc.Cfg.FasterBound(n) + 10, err
			},
		}
	}
	return jobs
}

// Pooled execution must not change a single bit of a batch's results: the
// serial fresh-construction reference, the serial pooled run and pooled
// runs at several worker counts (different arena reuse patterns each
// time) must all agree.
func TestPooledWorkerStateDeterminism(t *testing.T) {
	const base = 77
	ref, _ := New(1).Run(base, gatherJobs(12))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	arenas := func(int) any { return gather.NewArena() }
	for _, workers := range []int{1, 2, 4, 8} {
		got, _ := New(workers).WithWorkerState(arenas).Run(base, pooledGatherJobs(12))
		if err := FirstErr(got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("workers=%d: pooled results differ from fresh serial reference", workers)
		}
	}
}

// Worker-state plumbing: init runs once per worker, BuildIn receives that
// worker's value on every job, and a job with neither Build nor BuildIn
// is an error, not a panic.
func TestWorkerStatePlumbing(t *testing.T) {
	var mu sync.Mutex
	inits := map[int]int{}
	r := New(3).WithWorkerState(func(worker int) any {
		mu.Lock()
		inits[worker]++
		mu.Unlock()
		return &worker
	})
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{BuildIn: func(_ uint64, state any) (*sim.World, int, error) {
			if _, ok := state.(*int); !ok {
				return nil, 0, fmt.Errorf("job saw state %T, want *int", state)
			}
			return nil, 0, nil // pure-compute skip
		}}
	}
	jobs = append(jobs, Job{}) // no builder at all
	results, st := r.Run(5, jobs)
	for i := 0; i < 12; i++ {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
	}
	if results[12].Err == nil {
		t.Error("builder-less job did not error")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(inits) == 0 || len(inits) > 3 {
		t.Errorf("worker-state init ran for %d workers, want 1..3", len(inits))
	}
	for w, n := range inits {
		if n != 1 {
			t.Errorf("worker %d initialized %d times", w, n)
		}
	}
	if st.Skipped != 12 {
		t.Errorf("skips = %d, want 12", st.Skipped)
	}
}

// BuildIn without WithWorkerState receives nil state, which the pooled
// scenario builders treat as fresh construction.
func TestBuildInWithoutWorkerState(t *testing.T) {
	results, _ := New(2).Run(3, pooledGatherJobs(4))
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Res.DetectionCorrect {
			t.Errorf("job %d without worker state failed: %+v", i, r.Res)
		}
	}
}

func TestWorkerDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Error("default pool empty")
	}
	if New(-3).Workers() < 1 {
		t.Error("negative pool not defaulted")
	}
	if New(5).Workers() != 5 {
		t.Error("explicit pool size not honored")
	}
}
