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
// per-job seed. pooled jobs build their worlds in the worker's arena; the
// others build fresh ones.
func gatherJobs(count int, pooled bool) []Job {
	jobs := make([]Job, count)
	for i := 0; i < count; i++ {
		n := 8 + 2*(i%3)
		jobs[i] = Job{
			Meta: n,
			Build: func(seed uint64, a *gather.Arena) (*sim.World, int, error) {
				rng := graph.NewRNG(seed)
				g := graph.Cycle(n)
				g = g.WithPermutedPorts(rng)
				k := n/2 + 1
				sc := &gather.Scenario{
					G:         g,
					IDs:       gather.AssignIDs(k, n, rng),
					Positions: place.MaxMinDispersed(g, k, rng),
				}
				if !pooled {
					a = nil
				}
				return sc.World(a, "faster", 0)
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
	ref, refStats := New(1).Run(base, gatherJobs(12, false))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, _ := New(workers).Run(base, gatherJobs(12, false))
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("workers=%d: results differ from serial reference", workers)
		}
	}
	if refStats.Rounds == 0 || refStats.Moves == 0 {
		t.Errorf("stats empty: %+v", refStats)
	}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	jobs := gatherJobs(20, true)
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
		{Build: func(uint64, *gather.Arena) (*sim.World, int, error) { return nil, 0, fmt.Errorf("boom 0") }},
		{Build: func(uint64, *gather.Arena) (*sim.World, int, error) { return nil, 0, nil }}, // pure-compute skip
		gatherJobs(1, true)[0],
		{Build: func(uint64, *gather.Arena) (*sim.World, int, error) { return nil, 0, fmt.Errorf("boom 3") }},
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
// constructed inside Build, each fresh. This is the shared-graph sweep
// shape the immutable CSR layout exists for.
func sharedGraphJobs(sc *gather.Scenario, count int) []Job {
	jobs := make([]Job, count)
	for i := range jobs {
		jobs[i] = Job{Build: func(seed uint64, _ *gather.Arena) (*sim.World, int, error) {
			jrng := graph.NewRNG(seed)
			job := *sc // shallow copy: same frozen graph, per-job placement
			job.Positions = place.MaxMinDispersed(sc.G, len(sc.IDs), jrng)
			return job.World(nil, "faster", 0)
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

// Pooled execution must not change a single bit of a batch's results: the
// serial fresh-construction reference, the serial pooled run and pooled
// runs at several worker counts (different arena reuse patterns each
// time) must all agree.
func TestPooledWorkerStateDeterminism(t *testing.T) {
	const base = 77
	ref, _ := New(1).Run(base, gatherJobs(12, false))
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, _ := New(workers).Run(base, gatherJobs(12, true))
		if err := FirstErr(got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("workers=%d: pooled results differ from fresh serial reference", workers)
		}
	}
}

// Worker-state plumbing: every job's Build receives its worker's arena,
// never nil, and one per worker, so a batch sees at most as many distinct
// arenas as it has workers. A job without a Build is an error, not a panic.
func TestWorkerStatePlumbing(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	uses := map[*gather.Arena]int{}
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
			if a == nil {
				return nil, 0, fmt.Errorf("job got a nil arena")
			}
			mu.Lock()
			uses[a]++
			mu.Unlock()
			return nil, 0, nil // pure-compute skip
		}}
	}
	jobs = append(jobs, Job{}) // no builder at all
	results, st := New(workers).Run(5, jobs)
	for i := 0; i < 12; i++ {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
	}
	if results[12].Err == nil || results[12].Stack != "" {
		t.Errorf("builder-less job: err=%v stack=%q, want an error and no panic", results[12].Err, results[12].Stack)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(uses) == 0 || len(uses) > workers {
		t.Errorf("jobs saw %d distinct arenas on %d workers, want 1..%d", len(uses), workers, workers)
	}
	if st.Skipped != 12 {
		t.Errorf("skips = %d, want 12", st.Skipped)
	}
}

// A Build that declines its worker's arena and passes nil to
// Scenario.World constructs a fresh world, and those jobs gather and
// detect correctly.
func TestBuildInWithoutWorkerState(t *testing.T) {
	results, _ := New(2).Run(3, gatherJobs(4, false))
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
	// A batch never starts more workers than it has jobs.
	if _, st := New(5).Run(1, make([]Job, 3)); st.Workers != 3 {
		t.Errorf("Stats.Workers = %d for 3 jobs on a 5-worker pool, want 3", st.Workers)
	}
}

// A job whose agent panics mid-run is that job's error — one
// deterministic line, the stack carried separately — and the jobs around
// it on the same worker run untouched.
func TestPanicContainedPerJob(t *testing.T) {
	good := gatherJobs(1, true)[0]
	g := graph.Path(4)
	boom := Job{Build: func(uint64, *gather.Arena) (*sim.World, int, error) {
		w, err := sim.NewWorld(g, []sim.Agent{&bomb{sim.NewBase(1)}}, []int{0})
		return w, 10, err
	}}
	ref, _ := New(1).Run(5, []Job{good, good})
	got, st := New(1).Run(5, []Job{good, boom, good})
	if got[1].Err == nil || got[1].Err.Error() != "runner: job 1 panicked: kaboom" {
		t.Errorf("panicked job error = %v, want \"runner: job 1 panicked: kaboom\"", got[1].Err)
	}
	if got[1].Stack == "" {
		t.Error("panicked job lost its stack")
	}
	if got[0].Err != nil || !reflect.DeepEqual(got[0].Res, ref[0].Res) {
		t.Error("job before the panic perturbed")
	}
	if got[2].Err != nil || !got[2].Res.DetectionCorrect {
		t.Errorf("job after the panic on the same worker failed: %+v", got[2])
	}
	if st.Failed != 1 {
		t.Errorf("stats %+v, want 1 failed", st)
	}
}

// bomb panics during its first Decide.
type bomb struct{ sim.Base }

func (*bomb) Observe(*sim.Env)               {}
func (*bomb) Compose(*sim.Env) []sim.Message { return nil }
func (*bomb) Decide(*sim.Env) sim.Action     { panic("kaboom") }
