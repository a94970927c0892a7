package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/sim/batch"
)

// dualJobs builds a sweep whose jobs carry both the scalar path (BuildIn)
// and the lockstep path (Lane) over one shared frozen instance, so Run
// and RunBatched can be diffed on identical work. Scenario state is built
// before submission from the instance seed; only the scheduler varies per
// job, derived from the job seed exactly the same way on both paths.
func dualJobs(t *testing.T, count int, algo, sched string) []Job {
	t.Helper()
	rng := graph.NewRNG(0xD0A1)
	g := graph.Cycle(10).WithPermutedPorts(rng)
	const k = 4
	sc := &gather.Scenario{
		G:         g,
		IDs:       gather.AssignIDs(k, g.N(), rng),
		Positions: place.MaxMinDispersed(g, k, rng),
	}
	cap, err := sc.AlgoCap(algo, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, count)
	for i := 0; i < count; i++ {
		jobs[i] = Job{
			Meta: i,
			BuildIn: func(seed uint64, state any) (*sim.World, int, error) {
				s, err := sim.ParseScheduler(sched, seed^0xABCD)
				if err != nil {
					return nil, 0, err
				}
				w, err := sc.WithScheduler(s).NewAlgoWorldIn(gather.ArenaOf(state), algo, 0)
				return w, cap, err
			},
			Lane: func(seed uint64, state any, e *batch.Engine) error {
				s, err := sim.ParseScheduler(sched, seed^0xABCD)
				if err != nil {
					return err
				}
				agents, err := sc.NewAgentsIn(gather.LaneArenaOf(state), e.Lanes(), algo, 0)
				if err != nil {
					return err
				}
				_, err = e.AddLane(sc.G, agents, sc.Positions, cap, s)
				return err
			},
		}
	}
	return jobs
}

// TestRunBatchedMatchesRun is the runner-level equivalence gate: every
// batch width, worker count, and worker-state configuration must produce
// results bit-identical to the scalar pool. DessMark under per-job
// semi-synchronous schedulers is the combination that survives
// desynchronization (see E19/E20), so every job completes and the jobs
// genuinely differ; faster and uxs run in their proven fully-synchronous
// regime.
func TestRunBatchedMatchesRun(t *testing.T) {
	cases := []struct{ algo, sched string }{
		{"dessmark", "semi:0.7"},
		{"faster", "full"},
		{"uxs", "full"},
	}
	for _, c := range cases {
		jobs := dualJobs(t, 13, c.algo, c.sched)
		ref, _ := New(1).Run(99, jobs)
		if err := FirstErr(ref); err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 4, 32} {
			for _, workers := range []int{1, 4} {
				r := New(workers).WithWorkerState(func(int) any { return gather.NewSweepState() })
				got, st := r.RunBatched(99, jobs, width)
				if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
					t.Errorf("%s/%s width=%d workers=%d: results differ from scalar Run", c.algo, c.sched, width, workers)
				}
				if st.Jobs != len(jobs) || st.Failed != 0 {
					t.Errorf("%s/%s width=%d workers=%d: stats %+v", c.algo, c.sched, width, workers, st)
				}
			}
		}
		// Without worker state the lanes build fresh agents each time.
		got, _ := New(2).RunBatched(99, jobs, 4)
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("%s/%s stateless: results differ from scalar Run", c.algo, c.sched)
		}
	}
}

// TestRunBatchedMixedGraphs drives the flush-on-mismatch path: consecutive
// jobs alternate between two instances with different graphs (and robot
// counts), so every group straddles a mismatch and must flush and retry.
func TestRunBatchedMixedGraphs(t *testing.T) {
	mk := func(n, k int, seed uint64) (*gather.Scenario, int) {
		rng := graph.NewRNG(seed)
		g := graph.Cycle(n).WithPermutedPorts(rng)
		sc := &gather.Scenario{
			G:         g,
			IDs:       gather.AssignIDs(k, n, rng),
			Positions: place.MaxMinDispersed(g, k, rng),
		}
		cap, err := sc.AlgoCap("dessmark", 0)
		if err != nil {
			t.Fatal(err)
		}
		return sc, cap
	}
	scA, capA := mk(10, 4, 1)
	scB, capB := mk(14, 6, 2)
	jobs := make([]Job, 9)
	for i := range jobs {
		sc, cap := scA, capA
		if i%2 == 1 {
			sc, cap = scB, capB
		}
		jobs[i] = Job{
			Build: func(seed uint64) (*sim.World, int, error) {
				w, err := sc.NewDessmarkWorld()
				return w, cap, err
			},
			Lane: func(seed uint64, state any, e *batch.Engine) error {
				agents, err := sc.NewAgents("dessmark", 0)
				if err != nil {
					return err
				}
				_, err = e.AddLane(sc.G, agents, sc.Positions, cap, nil)
				return err
			},
		}
	}
	ref, _ := New(1).Run(7, jobs)
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 3, 9} {
		got, _ := New(1).RunBatched(7, jobs, width)
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("width=%d: mixed-graph results differ from scalar Run", width)
		}
	}
}

// TestRunBatchedFallbackAndSkip covers the non-lane paths inside a group:
// jobs without Lane run scalar inline, and a Lane that adds nothing marks
// its job skipped — both interleaved with genuine lanes.
func TestRunBatchedFallbackAndSkip(t *testing.T) {
	// A full-sync lane: its result is seed-independent, so the reference
	// run's jobs need not sit at the same submission indices.
	lane := dualJobs(t, 1, "dessmark", "full")[0]
	jobs := []Job{
		lane,
		{Build: func(seed uint64) (*sim.World, int, error) { return nil, 0, nil }}, // scalar skip
		{Lane: func(seed uint64, state any, e *batch.Engine) error { return nil }}, // batched skip
		lane,
		{Lane: func(seed uint64, state any, e *batch.Engine) error {
			return fmt.Errorf("lane build failed")
		}},
		lane,
	}
	ref, _ := New(1).Run(3, []Job{lane, lane, lane})
	got, st := New(1).RunBatched(3, jobs, len(jobs))
	for gi, ri := range map[int]int{0: 0, 3: 1, 5: 2} {
		g, r := got[gi], ref[ri]
		if g.Err != nil || !reflect.DeepEqual(g.Res, r.Res) {
			t.Errorf("job %d: err=%v res mismatch with scalar reference", gi, g.Err)
		}
	}
	if !got[1].Skipped || !got[2].Skipped {
		t.Errorf("skip flags: scalar=%v batched=%v", got[1].Skipped, got[2].Skipped)
	}
	if got[4].Err == nil || got[4].Err.Error() != "lane build failed" {
		t.Errorf("failed lane error = %v", got[4].Err)
	}
	if st.Failed != 1 || st.Skipped != 2 {
		t.Errorf("stats %+v", st)
	}
}

// TestRunBatchedPanicParity pins that a lane panicking mid-run reports
// exactly like the scalar path — same error text, stack attached — and
// leaves sibling jobs in the same group untouched.
func TestRunBatchedPanicParity(t *testing.T) {
	good := dualJobs(t, 1, "dessmark", "semi:0.7")[0]
	g := graph.Path(4)
	boom := Job{
		Build: func(seed uint64) (*sim.World, int, error) {
			w, err := sim.NewWorld(g, []sim.Agent{&bomb{sim.NewBase(1)}}, []int{0})
			return w, 10, err
		},
		Lane: func(seed uint64, state any, e *batch.Engine) error {
			_, err := e.AddLane(g, []sim.Agent{&bomb{sim.NewBase(1)}}, []int{0}, 10, nil)
			return err
		},
	}
	jobs := []Job{good, boom, good}
	ref, _ := New(1).Run(5, jobs)
	got, st := New(1).RunBatched(5, jobs, 3)
	if got[1].Err == nil || got[1].Err.Error() != ref[1].Err.Error() {
		t.Errorf("panic error parity: batched %q, scalar %q", got[1].Err, ref[1].Err)
	}
	if !strings.Contains(got[1].Err.Error(), "runner: job 1 panicked: kaboom") {
		t.Errorf("panic error = %v", got[1].Err)
	}
	if got[1].Stack == "" {
		t.Error("panicked lane lost its stack")
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Res, ref[i].Res) {
			t.Errorf("sibling job %d perturbed by panicking lane", i)
		}
	}
	if st.Failed != 1 {
		t.Errorf("stats %+v", st)
	}
}

// bomb panics during its first Decide.
type bomb struct{ sim.Base }

func (*bomb) Observe(*sim.Env)               {}
func (*bomb) Compose(*sim.Env) []sim.Message { return nil }
func (*bomb) Decide(*sim.Env) sim.Action     { panic("kaboom") }
