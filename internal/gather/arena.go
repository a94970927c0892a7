package gather

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Arena is a worker-owned pool of simulation state: one long-lived
// sim.World plus the agent set loaded into it, and one churn overlay.
// Every runner worker owns one and hands it to each job's Build, which
// builds its world *in* it via Scenario.World; when consecutive jobs
// share the arena's shape — same frozen graph, algorithm, robot count
// and config — the world is rewound with World.Reset and the agents with
// sim.Resettable.Reset instead of being reallocated, which removes
// per-job setup cost entirely (zero allocations on the engine side). On
// any shape change the arena falls back to fresh construction and adopts
// the new shape, so building in an arena is always safe: the pooling is
// an optimization, never a constraint. A nil *Arena builds fresh.
//
// An Arena is NOT safe for concurrent use and backs at most one live world
// at a time: the world returned by Scenario.World is invalidated by the
// next World call on the same arena. Pooling is bit-transparent — a
// pooled run produces exactly the results of a fresh one (the golden suite
// pins this) — so results never depend on which worker, or which arena
// history, a job lands on.
type Arena struct {
	world  *sim.World
	agents []sim.Agent
	key    arenaKey
	pooled bool // every agent implements sim.Resettable
	ov     *graph.Overlay
}

// arenaKey identifies the shape an arena currently holds. Two builds with
// equal keys are guaranteed interchangeable up to Reset: the graph pointer
// pins the (immutable) topology, and algo/radius/cfg/k pin the agent
// construction inputs.
type arenaKey struct {
	algo   string
	g      *graph.Graph
	k      int
	cfg    Config
	radius int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// load builds the scenario's world from the per-robot constructor mk
// inside the arena: it reuses the arena's world and agents when the shape
// key matches, reuses just the world (grow-only Reset) when only the
// graph matches, and constructs from scratch otherwise. A nil arena
// builds fresh. The scenario's scheduler (nil = FullSync) is installed in
// every case. The scenario must already be valid.
func (a *Arena) load(s *Scenario, key arenaKey, mk func(id int) sim.Agent) (*sim.World, error) {
	if a == nil {
		return s.newWorld(mk)
	}
	if a.pooled && a.key == key {
		for i, id := range s.IDs {
			a.agents[i].(sim.Resettable).Reset(id)
		}
		if err := a.world.Reset(a.agents, s.Positions); err != nil {
			return nil, err
		}
		a.world.SetScheduler(s.Sched)
		return a.world, nil
	}
	agents := make([]sim.Agent, len(s.IDs))
	pooled := true
	for i, id := range s.IDs {
		agents[i] = mk(id)
		if _, ok := agents[i].(sim.Resettable); !ok {
			pooled = false
		}
	}
	var (
		w   *sim.World
		err error
	)
	if a.world != nil && a.world.Graph() == s.G {
		// Same frozen graph, different shape: the engine state still fits
		// (grow-only), only the agents had to be rebuilt.
		w = a.world
		err = w.Reset(agents, s.Positions)
	} else {
		w, err = sim.NewWorld(s.G, agents, s.Positions)
	}
	if err != nil {
		return nil, err
	}
	w.SetScheduler(s.Sched)
	a.world, a.agents, a.key, a.pooled = w, agents, key, pooled
	return w, nil
}

// Overlay returns the churn overlay for (g, rate, seed), rewound to round
// zero. The arena keeps the last overlay it built and hands it back while
// the key matches — a sweep's jobs over one instance all ask for the same
// key, so every job replays identical churn from one overlay and only a
// key change pays NewOverlay's BFS. A nil arena builds fresh. The engine
// also rewinds a non-fresh overlay at its round 0, so an interleaved run
// on the same worker can never leak advanced churn into the next one.
func (a *Arena) Overlay(g *graph.Graph, rate float64, seed uint64) *graph.Overlay {
	if a == nil {
		return graph.NewOverlay(g, rate, seed)
	}
	if a.ov != nil && a.ov.Base() == g && a.ov.Rate() == rate && a.ov.Seed() == seed {
		a.ov.Reset()
		return a.ov
	}
	a.ov = graph.NewOverlay(g, rate, seed)
	return a.ov
}
