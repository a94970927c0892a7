package gather

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Arena is a worker-owned pool of simulation state: one long-lived
// sim.World plus the agent set loaded into it. Sweeps that run thousands
// of short jobs hand each runner worker an Arena
// (runner.WithWorkerState(func(int) any { return gather.NewArena() })) and
// build every job's world *in* it via the Scenario.New*WorldIn
// constructors; when consecutive jobs share the arena's shape — same
// frozen graph, algorithm, robot count and config — the world is rewound
// with World.Reset and the agents with sim.Resettable.Reset instead of
// being reallocated, which removes per-job setup cost entirely (zero
// allocations on the engine side). On any shape change the arena falls
// back to fresh construction and adopts the new shape, so pooled builders
// are always safe to call: the pooling is an optimization, never a
// constraint.
//
// An Arena is NOT safe for concurrent use and backs at most one live world
// at a time: the world returned by a pooled builder is invalidated by the
// next builder call on the same arena. Pooling is bit-transparent — a
// pooled run produces exactly the results of a fresh one (the golden suite
// pins this) — so results never depend on which worker, or which arena
// history, a job lands on.
type Arena struct {
	world  *sim.World
	agents []sim.Agent
	key    arenaKey
	pooled bool // every agent implements sim.Resettable
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

// ArenaOf coerces a runner worker-state value into an arena, unwrapping a
// SweepState (the arena plus overlay pool of a sweep worker). A nil state
// (runner without WithWorkerState) or a foreign type yields nil, which
// every pooled builder treats as "construct fresh" — so job code can
// thread the state through unconditionally.
func ArenaOf(state any) *Arena {
	switch v := state.(type) {
	case *Arena:
		return v
	case *SweepState:
		return v.Arena
	}
	return nil
}

// newWorldIn is the pooled counterpart of newWorld: it builds the
// scenario's world inside the arena, reusing the arena's world and agents
// when the shape key matches, reusing just the world (grow-only Reset)
// when only the graph matches, and constructing from scratch otherwise.
// The scenario's scheduler (nil = FullSync) is installed in every case,
// exactly as the fresh path does.
func (s *Scenario) newWorldIn(a *Arena, algo string, radius int, mk func(id int) sim.Agent) (*sim.World, error) {
	if a == nil {
		return s.newWorld(mk)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	key := arenaKey{algo: algo, g: s.G, k: len(s.IDs), cfg: s.Cfg, radius: radius}
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

// NewAlgoWorldIn is newWorldIn keyed by algorithm name, through the
// per-robot constructor table (algoMk). Callers that sweep over algorithm
// names (the CLIs, the sweep service) use this directly; the New*WorldIn
// wrappers below pin the names.
func (s *Scenario) NewAlgoWorldIn(a *Arena, algo string, radius int) (*sim.World, error) {
	mk, err := s.algoMk(algo, radius)
	if err != nil {
		return nil, err
	}
	return s.newWorldIn(a, algo, radius, mk)
}

// NewFasterWorldIn is NewFasterWorld built in the arena (nil = fresh).
func (s *Scenario) NewFasterWorldIn(a *Arena) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "faster", 0)
}

// NewUXSWorldIn is NewUXSWorld built in the arena (nil = fresh).
func (s *Scenario) NewUXSWorldIn(a *Arena) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "uxs", 0)
}

// NewUndispersedWorldIn is NewUndispersedWorld built in the arena (nil =
// fresh).
func (s *Scenario) NewUndispersedWorldIn(a *Arena) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "undispersed", 0)
}

// NewHopMeetWorldIn is NewHopMeetWorld built in the arena (nil = fresh).
func (s *Scenario) NewHopMeetWorldIn(a *Arena, radius int) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "hopmeet", radius)
}

// NewDessmarkWorldIn is NewDessmarkWorld built in the arena (nil = fresh).
func (s *Scenario) NewDessmarkWorldIn(a *Arena) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "dessmark", 0)
}

// NewBeepWorldIn is NewBeepWorld built in the arena (nil = fresh); the
// scenario must have at most two robots (the [21] setting, enforced by
// algoMk).
func (s *Scenario) NewBeepWorldIn(a *Arena) (*sim.World, error) {
	return s.NewAlgoWorldIn(a, "beep", 0)
}

// algoMk resolves a named algorithm to its per-robot agent constructor —
// the same constructors the New*World paths wrap. radius is the hopmeet
// radius and ignored elsewhere. The error texts mirror the CLI contract
// ("unknown algorithm", beep's two-robot limit).
func (s *Scenario) algoMk(algo string, radius int) (func(id int) sim.Agent, error) {
	n := s.G.N()
	switch algo {
	case "faster":
		return func(id int) sim.Agent { return NewFasterAgent(s.Cfg, n, id) }, nil
	case "uxs":
		return func(id int) sim.Agent { return NewUXSGAgent(s.Cfg, n, id) }, nil
	case "undispersed":
		return func(id int) sim.Agent { return NewUGAgent(n, id) }, nil
	case "hopmeet":
		return func(id int) sim.Agent { return NewHopMeetAgent(s.Cfg, radius, n, id) }, nil
	case "dessmark":
		return func(id int) sim.Agent { return NewDessmarkAgent(s.Cfg, n, id) }, nil
	case "beep":
		if len(s.IDs) > 2 {
			return nil, errTooManyForBeep
		}
		return func(id int) sim.Agent { return NewBeepAgent(s.Cfg, n, id) }, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// AlgoCap returns the algorithm-derived round cap for the named algorithm
// on this scenario — the one cap table gathersim, the sweep service and
// the experiments share, so every surface runs a given (scenario,
// algorithm) pair for the same round budget.
func (s *Scenario) AlgoCap(algo string, radius int) (int, error) {
	n := s.G.N()
	switch algo {
	case "faster", "dessmark":
		return s.Cfg.FasterBound(n) + 10, nil
	case "uxs", "beep":
		return s.Cfg.UXSGatherBound(n) + 2, nil
	case "undispersed":
		return R(n) + 2, nil
	case "hopmeet":
		return s.Cfg.HopDuration(radius, n) + 2, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", algo)
}

// OverlayPool is the worker-owned cache of the churn overlay: one
// graph.Overlay keyed by (graph, rate, seed), rewound on every hit. A
// sweep's jobs over one instance all ask for the same key, so every job
// replays identical churn from one pooled overlay. Get rewinds eagerly;
// the engine also rewinds a non-fresh overlay at its round 0, so an
// interleaved run on the same worker can never leak advanced churn into
// the next one.
type OverlayPool struct {
	ov *graph.Overlay
}

// NewOverlayPool returns an empty overlay pool.
func NewOverlayPool() *OverlayPool { return &OverlayPool{} }

// Get returns the pooled overlay for (g, rate, seed), rewound to round
// zero — building a fresh one only when the key changes (NewOverlay costs
// a BFS; sweeps hit the pooled path on every job after the first).
func (p *OverlayPool) Get(g *graph.Graph, rate float64, seed uint64) *graph.Overlay {
	if p.ov != nil && p.ov.Base() == g && p.ov.Rate() == rate && p.ov.Seed() == seed {
		p.ov.Reset()
		return p.ov
	}
	p.ov = graph.NewOverlay(g, rate, seed)
	return p.ov
}

// OverlayPoolOf coerces a runner worker-state value into an overlay pool,
// unwrapping a SweepState. nil or a foreign type yields nil — callers
// then build fresh overlays — like ArenaOf.
func OverlayPoolOf(state any) *OverlayPool {
	switch v := state.(type) {
	case *OverlayPool:
		return v
	case *SweepState:
		return v.Overlays
	}
	return nil
}

// SweepState bundles the world arena and the overlay pool into one runner
// worker state, so churned sweeps pool both. ArenaOf and OverlayPoolOf
// both unwrap it, so job code threads the state through unconditionally.
type SweepState struct {
	Arena    *Arena
	Overlays *OverlayPool
}

// NewSweepState returns a sweep state with empty pools.
func NewSweepState() *SweepState {
	return &SweepState{Arena: NewArena(), Overlays: NewOverlayPool()}
}
