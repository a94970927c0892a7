package gather

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Scenario is a complete gathering instance: graph, robot IDs, starting
// positions and shared configuration.
//
// Sharing: G is a frozen (immutable) graph and IDs/Positions/Cfg are
// read-only by convention, so one Scenario value can back any number of
// concurrent worlds — parallel sweeps build the instance once and
// reference it from every job. Only the scheduler is per-run state; use
// WithScheduler to derive per-job variants of a shared instance.
type Scenario struct {
	G         *graph.Graph
	IDs       []int
	Positions []int
	Cfg       Config
	// Sched, when non-nil, is installed on every world the scenario
	// builds (all Run*/New*World paths honor it); nil keeps the paper's
	// fully-synchronous model. Schedulers carry per-run state, so a
	// Scenario with a stateful Sched (SemiSync, Adversarial) builds one
	// world per scheduler instance: parallel sweeps derive a per-job copy
	// via WithScheduler instead of sharing one stateful scheduler.
	Sched sim.Scheduler
}

// WithScheduler returns a shallow copy of s carrying the given scheduler.
// The copy shares the frozen graph, IDs, positions and config with s (all
// read-only), so parallel jobs can derive per-run scenarios from one
// shared instance without rebuilding anything.
func (s *Scenario) WithScheduler(sched sim.Scheduler) *Scenario {
	c := *s
	c.Sched = sched
	return &c
}

// Validate checks the instance is well-formed.
func (s *Scenario) Validate() error {
	if s.G == nil || s.G.N() == 0 {
		return fmt.Errorf("gather: scenario without a graph")
	}
	if len(s.IDs) != len(s.Positions) {
		return fmt.Errorf("gather: %d IDs but %d positions", len(s.IDs), len(s.Positions))
	}
	if len(s.IDs) == 0 {
		return fmt.Errorf("gather: no robots")
	}
	seen := make(map[int]bool, len(s.IDs))
	for i, id := range s.IDs {
		if id < 1 {
			return fmt.Errorf("gather: ID %d out of range", id)
		}
		if seen[id] {
			return fmt.Errorf("gather: duplicate ID %d", id)
		}
		seen[id] = true
		if p := s.Positions[i]; p < 0 || p >= s.G.N() {
			return fmt.Errorf("gather: robot %d at invalid node %d", id, p)
		}
	}
	return nil
}

// Dispersed reports whether every node holds at most one robot.
func (s *Scenario) Dispersed() bool {
	seen := make(map[int]bool, len(s.Positions))
	for _, p := range s.Positions {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// MinPairDistance returns the smallest hop distance between two robots
// (0 when two share a node), or -1 with fewer than two robots.
func (s *Scenario) MinPairDistance() int {
	if len(s.Positions) < 2 {
		return -1
	}
	best := -1
	for i, p := range s.Positions {
		d := s.G.BFSDistances(p)
		for j, q := range s.Positions {
			if i == j {
				continue
			}
			if best < 0 || d[q] < best {
				best = d[q]
			}
		}
	}
	return best
}

// newWorld builds a simulator world from per-robot agents.
func (s *Scenario) newWorld(mk func(id int) sim.Agent) (*sim.World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	agents := make([]sim.Agent, len(s.IDs))
	for i, id := range s.IDs {
		agents[i] = mk(id)
	}
	w, err := sim.NewWorld(s.G, agents, s.Positions)
	if err != nil {
		return nil, err
	}
	if s.Sched != nil {
		w.SetScheduler(s.Sched)
	}
	return w, nil
}

// RunFaster executes the complete Faster-Gathering algorithm (Theorems 12
// and 16) and returns the run summary. maxRounds caps the simulation.
func (s *Scenario) RunFaster(maxRounds int) (sim.Result, error) {
	w, err := s.NewFasterWorld()
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}

// NewFasterWorld returns a simulator world loaded with Faster-Gathering
// robots, for callers that want to step, trace or inspect the run
// manually (see the maze example).
func (s *Scenario) NewFasterWorld() (*sim.World, error) {
	return s.newWorld(func(id int) sim.Agent { return NewFasterAgent(s.Cfg, s.G.N(), id) })
}

// NewUXSWorld returns a simulator world loaded with §2.1 UXS-gathering
// robots, for fault- and delay-injection experiments.
func (s *Scenario) NewUXSWorld() (*sim.World, error) {
	return s.newWorld(func(id int) sim.Agent { return NewUXSGAgent(s.Cfg, s.G.N(), id) })
}

// NewFasterWorldDelayed is NewFasterWorld with per-robot wake rounds
// (wakes[i] delays s.IDs[i]); it models the startup-delay setting the
// paper leaves as future work. wakes must match the robot count.
func (s *Scenario) NewFasterWorldDelayed(wakes []int) (*sim.World, error) {
	if len(wakes) != len(s.IDs) {
		return nil, fmt.Errorf("gather: %d wakes for %d robots", len(wakes), len(s.IDs))
	}
	i := -1
	return s.newWorld(func(id int) sim.Agent {
		i++
		return sim.Delayed(NewFasterAgent(s.Cfg, s.G.N(), id), wakes[i])
	})
}

// NewUXSWorldDelayed is NewUXSWorld with per-robot wake rounds.
func (s *Scenario) NewUXSWorldDelayed(wakes []int) (*sim.World, error) {
	if len(wakes) != len(s.IDs) {
		return nil, fmt.Errorf("gather: %d wakes for %d robots", len(wakes), len(s.IDs))
	}
	i := -1
	return s.newWorld(func(id int) sim.Agent {
		i++
		return sim.Delayed(NewUXSGAgent(s.Cfg, s.G.N(), id), wakes[i])
	})
}

// NewUndispersedWorld returns a world loaded with standalone
// Undispersed-Gathering robots.
func (s *Scenario) NewUndispersedWorld() (*sim.World, error) {
	return s.newWorld(func(id int) sim.Agent { return NewUGAgent(s.G.N(), id) })
}

// NewHopMeetWorld returns a world loaded with standalone i-Hop-Meeting
// robots of the given radius.
func (s *Scenario) NewHopMeetWorld(radius int) (*sim.World, error) {
	return s.newWorld(func(id int) sim.Agent { return NewHopMeetAgent(s.Cfg, radius, s.G.N(), id) })
}

// NewDessmarkWorld returns a world loaded with the iterated-deepening
// baseline robots.
func (s *Scenario) NewDessmarkWorld() (*sim.World, error) {
	return s.newWorld(func(id int) sim.Agent { return NewDessmarkAgent(s.Cfg, s.G.N(), id) })
}

// RunUXS executes the §2.1 UXS gathering-with-detection algorithm
// (Theorem 6). It doubles as the gathering-without-detection baseline via
// Result.FirstGatherRound.
func (s *Scenario) RunUXS(maxRounds int) (sim.Result, error) {
	w, err := s.newWorld(func(id int) sim.Agent { return NewUXSGAgent(s.Cfg, s.G.N(), id) })
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}

// RunUndispersed executes standalone Undispersed-Gathering (Theorem 8);
// the initial configuration must be undispersed for its guarantee.
func (s *Scenario) RunUndispersed(maxRounds int) (sim.Result, error) {
	w, err := s.newWorld(func(id int) sim.Agent { return NewUGAgent(s.G.N(), id) })
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}

// RunHopMeet executes the standalone i-Hop-Meeting procedure (Lemmas 9 and
// 10) with the given radius; Result.FirstMeetRound reports when an
// undispersed configuration was reached.
func (s *Scenario) RunHopMeet(radius, maxRounds int) (sim.Result, error) {
	w, err := s.newWorld(func(id int) sim.Agent { return NewHopMeetAgent(s.Cfg, radius, s.G.N(), id) })
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}

// RunDessmark executes the iterated-deepening baseline [17].
func (s *Scenario) RunDessmark(maxRounds int) (sim.Result, error) {
	w, err := s.newWorld(func(id int) sim.Agent { return NewDessmarkAgent(s.Cfg, s.G.N(), id) })
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}
