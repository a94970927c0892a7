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
	// builds (World, Run and DelayedWorld all install it); nil keeps the
	// paper's fully-synchronous model. Schedulers carry per-run state, so
	// a Scenario with a stateful Sched (SemiSync, Adversarial) builds one
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

// World loads the scenario into a world running the named algorithm
// (faster, uxs, undispersed, hopmeet, dessmark or beep; radius is the
// hopmeet radius) and returns it with the algorithm's round cap. A
// non-nil arena builds the world in the arena, pooled across calls (see
// Arena); nil builds a fresh world the caller owns.
func (s *Scenario) World(a *Arena, algo string, radius int) (*sim.World, int, error) {
	mk, cap, err := s.algorithm(algo, radius)
	if err != nil {
		return nil, 0, err
	}
	key := arenaKey{algo: algo, g: s.G, k: len(s.IDs), cfg: s.Cfg, radius: radius}
	w, err := a.load(s, key, mk)
	return w, cap, err
}

// Run executes the named algorithm on a fresh world for maxRounds
// rounds, or for the algorithm's cap when maxRounds is 0, and returns the
// run summary.
func (s *Scenario) Run(algo string, radius, maxRounds int) (sim.Result, error) {
	w, cap, err := s.World(nil, algo, radius)
	if err != nil {
		return sim.Result{}, err
	}
	if maxRounds > 0 {
		cap = maxRounds
	}
	return w.Run(cap), nil
}

// DelayedWorld is World on a fresh world with per-robot wake rounds
// (wakes[i] delays s.IDs[i]); it models the startup-delay setting the
// paper leaves as future work. hopmeet runs with radius 0. The returned
// cap is the synchronous one: a caller that delays robots adds its delay.
func (s *Scenario) DelayedWorld(algo string, wakes []int) (*sim.World, int, error) {
	if len(wakes) != len(s.IDs) {
		return nil, 0, fmt.Errorf("gather: %d wakes for %d robots", len(wakes), len(s.IDs))
	}
	mk, cap, err := s.algorithm(algo, 0)
	if err != nil {
		return nil, 0, err
	}
	i := -1
	w, err := s.newWorld(func(id int) sim.Agent {
		i++
		return sim.Delayed(mk(id), wakes[i])
	})
	return w, cap, err
}

// algorithm validates the scenario and resolves a named algorithm to its
// per-robot agent constructor and its round cap on this scenario: the
// one place each algorithm meets its bound — Theorems 12/16's
// FasterBound for Faster-Gathering (and the iterated-deepening baseline
// it is compared with), Theorem 6's UXSGatherBound for UXS gathering
// (and its beeping-model variant), Theorem 8's R(n) for
// Undispersed-Gathering and Lemma 10's HopDuration for i-Hop-Meeting.
// The error texts are the CLI contract ("unknown algorithm", beep's
// two-robot limit).
func (s *Scenario) algorithm(algo string, radius int) (func(id int) sim.Agent, int, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	n, cfg := s.G.N(), s.Cfg
	switch algo {
	case "faster":
		return func(id int) sim.Agent { return NewFasterAgent(cfg, n, id) }, cfg.FasterBound(n) + 10, nil
	case "uxs":
		return func(id int) sim.Agent { return NewUXSGAgent(cfg, n, id) }, cfg.UXSGatherBound(n) + 2, nil
	case "undispersed":
		return func(id int) sim.Agent { return NewUGAgent(n, id) }, R(n) + 2, nil
	case "hopmeet":
		return func(id int) sim.Agent { return NewHopMeetAgent(cfg, radius, n, id) }, cfg.HopDuration(radius, n) + 2, nil
	case "dessmark":
		return func(id int) sim.Agent { return NewDessmarkAgent(cfg, n, id) }, cfg.FasterBound(n) + 10, nil
	case "beep":
		if len(s.IDs) > 2 {
			return nil, 0, errTooManyForBeep
		}
		return func(id int) sim.Agent { return NewBeepAgent(cfg, n, id) }, cfg.UXSGatherBound(n) + 2, nil
	}
	return nil, 0, fmt.Errorf("unknown algorithm %q", algo)
}

// newWorld builds a fresh simulator world from per-robot agents; the
// scenario must already be valid.
func (s *Scenario) newWorld(mk func(id int) sim.Agent) (*sim.World, error) {
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
