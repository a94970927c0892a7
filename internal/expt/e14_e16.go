package expt

// E14-E16 go beyond the paper's stated results into the territory its
// conclusion marks out: the cost metric (total edge traversals), crash
// faults, and arbitrary wake-up times. E14 reproduces the time to cost
// comparison the related-work section alludes to; E15 and E16 are
// assumption ablations — they demonstrate *why* the paper assumes
// fault-free robots and simultaneous start by measuring what breaks
// without those assumptions. All three run their cases as runner jobs;
// E16's mid-run observation (the round of the first premature
// termination) moves into a per-job tracer so the runner can own the
// round loop.

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
		ID:    "E14",
		Title: "Cost metric: total edge traversals",
		Claim: "Faster-Gathering wins on cost too: map-and-collect moves far less than repeated UXS sweeps",
		Run:   runE14,
	})
	register(Experiment{
		ID:    "E15",
		Title: "Crash-fault ablation",
		Claim: "The algorithms assume fault-free robots: a crashed leader strands its group; a crashed spare is tolerated",
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Startup-delay ablation",
		Claim: "The algorithms assume simultaneous start (the paper's stated assumption); delays desynchronize the shared schedules",
		Run:   runE16,
	})
}

// E14: total and max per-robot moves, Faster vs UXS, on the three
// canonical configurations.
func runE14(w io.Writer, o Options) error {
	n := 8
	if !o.Quick {
		n = 10
	}
	cases := []struct {
		name string
		k    int
		clus bool
	}{{"clustered", 4, true}, {"many robots", n/2 + 1, false}}
	scenario := func(k int, clus bool, caseSeed uint64) *gather.Scenario {
		rng := graph.NewRNG(caseSeed)
		g := graph.Cycle(n).WithPermutedPorts(rng)
		ids := gather.AssignIDs(k, n, rng)
		var pos []int
		if clus {
			pos = place.Clustered(g, k, 2, rng)
		} else {
			pos = place.MaxMinDispersed(g, k, rng)
		}
		return &gather.Scenario{G: g, IDs: ids, Positions: pos}
	}
	var jobs []runner.Job
	for ci, c := range cases {
		// One shared scenario per case: both arms reference the same frozen
		// graph and placement, and only build worlds inside the jobs.
		sc := scenario(c.k, c.clus, runner.JobSeed(o.Seed+14, ci))
		if err := checkCover(sc.G, sc.Cfg); err != nil {
			return err
		}
		jobs = append(jobs, algoJob(sc, "faster", nil), algoJob(sc, "uxs", nil))
	}
	results, err := sweep(o, o.Seed+14, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("config", "algo", "total-moves", "max-moves", "rounds")
	fasterCheaper := true
	for ci, c := range cases {
		resF, resU := results[2*ci].Res, results[2*ci+1].Res
		if !resF.DetectionCorrect || !resU.DetectionCorrect {
			return fmt.Errorf("E14: %s: detection failed", c.name)
		}
		tb.Add(c.name, "faster", resF.TotalMoves, resF.MaxMoves, resF.Rounds)
		tb.Add(c.name, "uxs", resU.TotalMoves, resU.MaxMoves, resU.Rounds)
		if resF.TotalMoves >= resU.TotalMoves {
			fasterCheaper = false
		}
	}
	tb.Render(w)
	verdict(w, fasterCheaper, "Faster-Gathering also moves fewer total edges than the UXS baseline")
	return nil
}

// E15: crash one robot at a scheduled round and record what survives.
// Crashing a follower/spare is tolerated (remaining robots finish
// correctly); crashing the group leader mid-run strands its followers —
// they wait for a leader that will never move, and the run hits the cap.
func runE15(w io.Writer, o Options) error {
	n := 7
	// Three robots: 9 leads the start group {9, 3}; 5 is elsewhere.
	ids := []int{3, 9, 5}
	pos := []int{0, 0, 3}
	type crash struct {
		id   int
		role string
		// expectations under the fail-stop model
		expectDone bool
	}
	cases := []crash{
		{0, "nobody (control)", true},
		{3, "follower", true},
		{5, "lone waiter", true},
		{9, "group leader", false}, // follower 3 strands: waits on a dead leader
	}
	// Every case replays the same instance (the graph seed is the
	// experiment's, not the job's), so all cases share one frozen graph
	// and scenario; only the worlds and crash schedules are per job.
	g := graph.Cycle(n).WithPermutedPorts(graph.NewRNG(o.Seed + 15))
	sc := &gather.Scenario{G: g, IDs: ids, Positions: pos}
	if err := checkCover(g, sc.Cfg); err != nil {
		return err
	}
	var jobs []runner.Job
	for _, c := range cases {
		c := c
		jobs = append(jobs, runner.Job{Meta: c,
			Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
				world, cap, err := sc.World(a, "uxs", 0)
				if err != nil {
					return nil, 0, err
				}
				if c.id != 0 {
					// Crash early, before the first full co-location.
					if err := world.CrashAt(c.id, 2); err != nil {
						return nil, 0, err
					}
				}
				return world, cap, nil
			}})
	}
	results, err := sweep(o, o.Seed+15, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("crashed-robot", "role", "terminated", "live-gathered", "detection", "rounds")
	allMatch := true
	for _, r := range results {
		c := r.Meta.(crash)
		tb.Add(c.id, c.role, r.Res.AllTerminated, r.Res.Gathered, r.Res.DetectionCorrect, r.Res.Rounds)
		if r.Res.AllTerminated != c.expectDone {
			allMatch = false
		}
	}
	tb.Render(w)
	verdict(w, allMatch, "crashes of spares are tolerated; crashing a leader strands its followers (fault-free assumption is load-bearing)")
	return nil
}

// E16: wake the smaller-ID robot τ rounds late and watch the §2.1
// schedule desynchronize. With τ = 0 the first termination happens only
// once everyone is gathered (correct detection). With a delay beyond the
// bigger robot's own schedule, the bigger robot waits out its terminal 2T
// rounds while the sleeper lies elsewhere and terminates *prematurely* —
// it declares gathering before it happened. (The final state often
// self-heals: the late riser's exploration finds the terminated robot and
// joins it, which is itself a measurable curiosity of the visible-sleeper
// model. The violation is the premature declaration.)
func runE16(w io.Writer, o Options) error {
	n := 6
	ids := []int{6, 9} // delay robot 6: the bigger robot 9 ignores sleepers
	pos := []int{0, 3}
	// One shared frozen instance for every delay arm.
	g := graph.Cycle(n).WithPermutedPorts(graph.NewRNG(o.Seed + 16))
	sc := &gather.Scenario{G: g, IDs: ids, Positions: pos}
	if err := checkCover(g, sc.Cfg); err != nil {
		return err
	}
	T := sc.Cfg.UXSLength(n)
	type e16meta struct {
		tau          int
		firstTerm    int
		gatheredThen bool
	}
	var jobs []runner.Job
	for _, tau := range []int{0, 2 * T, 12 * T} {
		tau := tau
		m := &e16meta{tau: tau, firstTerm: -1}
		jobs = append(jobs, runner.Job{Meta: m,
			Build: func(uint64, *gather.Arena) (*sim.World, int, error) {
				world, cap, err := sc.DelayedWorld("uxs", []int{tau, 0})
				if err != nil {
					return nil, 0, err
				}
				world.SetTracer(sim.TracerFunc(func(w2 *sim.World) {
					if m.firstTerm < 0 && w2.DoneCount() > 0 {
						m.firstTerm = w2.Round()
						m.gatheredThen = w2.AllColocated()
					}
				}))
				return world, cap + tau, nil
			}})
	}
	results, err := sweep(o, o.Seed+16, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("delay", "first-term-round", "gathered-then", "premature", "final-gathered", "final-rounds")
	var zeroOK, largeBroke bool
	for _, r := range results {
		m := r.Meta.(*e16meta)
		premature := m.firstTerm >= 0 && !m.gatheredThen
		tb.Add(m.tau, m.firstTerm, m.gatheredThen, premature, r.Res.Gathered, r.Res.Rounds)
		if m.tau == 0 {
			zeroOK = m.firstTerm >= 0 && m.gatheredThen
		}
		if m.tau == 12*T && premature {
			largeBroke = true
		}
	}
	tb.Render(w)
	verdict(w, zeroOK, "simultaneous start (the paper's assumption): no robot terminates before gathering completes")
	verdict(w, largeBroke, "a large startup delay causes premature detection: the assumption is load-bearing, matching the paper's future-work discussion")
	return nil
}
