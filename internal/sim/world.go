package sim

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/prof"
)

// World is the round-based execution engine: a graph, a set of robots with
// positions, and the round loop. It owns all mutable run state so a single
// World can be stepped, inspected and traced deterministically.
//
// The engine is layered:
//
//   - an occupancy index (occupancy.go) keeps per-node, ID-sorted robot
//     buckets incrementally up to date as robots move and crash, so
//     grouping costs O(moved) per round instead of a global re-sort;
//   - a Scheduler (scheduler.go) decides which robots are activated each
//     round — FullSync, the default, reproduces the paper's fully
//     synchronous model bit-for-bit;
//   - Step is a fixed phase pipeline over reusable scratch state:
//     snapshot -> communicate -> decide -> resolve -> apply.
type World struct {
	g       *graph.Graph //repolint:keep Reset rewinds runs on the same frozen graph; swapping graphs means a new World
	agents  []Agent
	ids     []int // robot ID of each agent index
	pos     []int // node of each robot (by agent index)
	arrival []int // port through which each robot last entered its node
	done    []bool
	verdict []bool
	moves   []int64
	round   int

	idIndex map[int]int // robot ID -> agent index
	tracer  Tracer
	sched   Scheduler
	occ     occupancy // live robots bucketed by node, ID-sorted

	crashAt   []int // round at which each robot fail-stops (-1 = never)
	crashed   []bool
	recoverAt []int  // round at which a crashed robot resumes (-1 = never)
	recovered []bool // robot has resumed from a crash this run
	byz       []bool // robot is Byzantine: its card and messages are corrupted
	byzSeed   []uint64

	overlay *graph.Overlay // dynamic edge mask, nil = static graph

	firstGather int // first round (boundary) at which all robots co-located
	firstMeet   int // first round (boundary) at which any two robots co-located
	stepped     int // rounds Step executed; Run jumped round - stepped

	// idlers holds each agent's Idler view (nil when it has none). Run
	// retakes the views on entry, so Reset and Step never assert: an
	// uncached interface assertion may allocate, and both are 0-alloc.
	//repolint:keep pooled grow-only storage; Run overwrites it before reading
	idlers []Idler

	// Per-round scratch, reused across Step calls: the engine runs for
	// millions of rounds in the deeper experiment regimes, so the hot
	// loop must not allocate. Env.Others and Env.Inbox slices handed to
	// agents alias this scratch and are only valid during the callback.
	//repolint:keep pooled grow-only storage; ensureScratch resizes and every phase overwrites before reading
	scratch scratch
}

type mv struct {
	node    int
	arrival int
	moved   bool
}

// NewWorld creates an engine for the given graph, agents and starting
// positions (positions[i] is the node of agents[i]). Agent IDs must be
// unique and positive. The world starts under the FullSync scheduler; see
// SetScheduler.
func NewWorld(g *graph.Graph, agents []Agent, positions []int) (*World, error) {
	if len(agents) != len(positions) {
		return nil, fmt.Errorf("sim: %d agents but %d positions", len(agents), len(positions))
	}
	if len(agents) == 0 {
		return nil, fmt.Errorf("sim: no agents")
	}
	w := &World{
		g:           g,
		agents:      agents,
		ids:         make([]int, len(agents)),
		pos:         append([]int(nil), positions...),
		arrival:     make([]int, len(agents)),
		done:        make([]bool, len(agents)),
		verdict:     make([]bool, len(agents)),
		moves:       make([]int64, len(agents)),
		idIndex:     make(map[int]int, len(agents)),
		sched:       NewFullSync(),
		crashAt:     make([]int, len(agents)),
		crashed:     make([]bool, len(agents)),
		recoverAt:   make([]int, len(agents)),
		recovered:   make([]bool, len(agents)),
		byz:         make([]bool, len(agents)),
		byzSeed:     make([]uint64, len(agents)),
		firstGather: -1,
		firstMeet:   -1,
	}
	for i := range w.crashAt {
		w.crashAt[i] = -1
		w.recoverAt[i] = -1
	}
	for i, a := range agents {
		if a.ID() <= 0 {
			return nil, fmt.Errorf("sim: agent %d has non-positive ID %d", i, a.ID())
		}
		if _, dup := w.idIndex[a.ID()]; dup {
			return nil, fmt.Errorf("sim: duplicate robot ID %d", a.ID())
		}
		w.idIndex[a.ID()] = i
		w.ids[i] = a.ID()
		if positions[i] < 0 || positions[i] >= g.N() {
			return nil, fmt.Errorf("sim: agent %d starts at invalid node %d", i, positions[i])
		}
		w.arrival[i] = -1
	}
	w.occ.reset(g.N(), w.ids, w.pos)
	w.noteGather()
	return w, nil
}

// Reset rewinds the world to round zero with a new agent set and starting
// positions on the same graph, reusing every piece of run state it already
// owns: the per-robot slices, the ID index, the occupancy index and the
// phase scratch. When the robot count matches the previous run the reset
// path performs zero allocations; when it differs, storage grows (never
// shrinks) to fit. This is what makes pooled sweeps cheap: a worker builds
// one World and Resets it per job instead of constructing a fresh engine.
//
// Reset puts the world in exactly the state NewWorld would have produced —
// in particular the tracer is cleared and the scheduler reverts to
// FullSync; reinstall both after Reset if the next run needs them. The
// agents slice is retained (not copied) like in NewWorld; positions are
// copied. On a validation error the world is left partially reset and must
// not be stepped until a subsequent Reset succeeds.
func (w *World) Reset(agents []Agent, positions []int) error {
	if len(agents) != len(positions) {
		return fmt.Errorf("sim: %d agents but %d positions", len(agents), len(positions))
	}
	if len(agents) == 0 {
		return fmt.Errorf("sim: no agents")
	}
	k := len(agents)
	w.agents = agents
	w.ids = growSlice(w.ids, k)
	w.pos = growSlice(w.pos, k)
	w.arrival = growSlice(w.arrival, k)
	w.done = growSlice(w.done, k)
	w.verdict = growSlice(w.verdict, k)
	w.moves = growSlice(w.moves, k)
	w.crashAt = growSlice(w.crashAt, k)
	w.crashed = growSlice(w.crashed, k)
	w.recoverAt = growSlice(w.recoverAt, k)
	w.recovered = growSlice(w.recovered, k)
	w.byz = growSlice(w.byz, k)
	w.byzSeed = growSlice(w.byzSeed, k)
	clear(w.idIndex)
	for i, a := range agents {
		if a.ID() <= 0 {
			return fmt.Errorf("sim: agent %d has non-positive ID %d", i, a.ID())
		}
		if _, dup := w.idIndex[a.ID()]; dup {
			return fmt.Errorf("sim: duplicate robot ID %d", a.ID())
		}
		if positions[i] < 0 || positions[i] >= w.g.N() {
			return fmt.Errorf("sim: agent %d starts at invalid node %d", i, positions[i])
		}
		w.idIndex[a.ID()] = i
		w.ids[i] = a.ID()
		w.pos[i] = positions[i]
		w.arrival[i] = -1
		w.done[i] = false
		w.verdict[i] = false
		w.moves[i] = 0
		w.crashAt[i] = -1
		w.crashed[i] = false
		w.recoverAt[i] = -1
		w.recovered[i] = false
		w.byz[i] = false
		w.byzSeed[i] = 0
	}
	w.round, w.stepped = 0, 0
	w.firstGather, w.firstMeet = -1, -1
	w.tracer = nil
	w.sched = NewFullSync()
	w.overlay = nil
	w.occ.reset(w.g.N(), w.ids, w.pos)
	w.noteGather()
	return nil
}

// growSlice reslices s to length n, reallocating only when the capacity is
// short: Reset's grow-only storage primitive.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// SetTracer installs an observer invoked after every round.
func (w *World) SetTracer(t Tracer) { w.tracer = t }

// SetScheduler installs the activation scheduler for subsequent rounds;
// nil restores the default FullSync. The scheduler instance becomes owned
// by this world (schedulers may carry per-run state).
func (w *World) SetScheduler(s Scheduler) {
	if s == nil {
		s = NewFullSync()
	}
	w.sched = s
}

// Scheduler returns the active scheduler.
func (w *World) Scheduler() Scheduler { return w.sched }

// CrashAt schedules a fail-stop fault: at the start of the given round the
// robot with the given ID stops operating and disappears from the system
// (it no longer communicates, moves, or appears co-located). The paper's
// algorithms assume fault-free robots; experiment E15 uses this to probe
// what breaks under crashes.
func (w *World) CrashAt(robotID, round int) error {
	i, ok := w.idIndex[robotID]
	if !ok {
		return fmt.Errorf("sim: no robot with ID %d", robotID)
	}
	if round < 0 {
		return fmt.Errorf("sim: crash round %d invalid", round)
	}
	w.crashAt[i] = round
	return nil
}

// RecoverAt schedules a crash-recovery fault: at the start of the given
// round a crashed robot resumes operating at its crash position with
// constructor-state amnesia — its agent is rewound to the state its
// constructor would produce (via sim.Resettable), so all protocol
// knowledge, including a prior termination, is lost, while its position
// and move odometer are preserved. The recovery round must come after the
// robot's scheduled crash round, and the agent must implement Resettable
// (amnesia is exactly the pooling rewind contract).
func (w *World) RecoverAt(robotID, round int) error {
	i, ok := w.idIndex[robotID]
	if !ok {
		return fmt.Errorf("sim: no robot with ID %d", robotID)
	}
	if w.crashAt[i] < 0 {
		return fmt.Errorf("sim: recovery scheduled for robot %d without a scheduled crash", robotID)
	}
	if round <= w.crashAt[i] {
		return fmt.Errorf("sim: recovery round %d not after crash round %d", round, w.crashAt[i])
	}
	if _, ok := w.agents[i].(Resettable); !ok {
		return fmt.Errorf("sim: robot %d's agent does not implement Resettable (required for recovery amnesia)", robotID)
	}
	w.recoverAt[i] = round
	return nil
}

// SetByzantine marks a robot Byzantine: from now on the card it exposes
// and the messages it sends are deterministically corrupted from the
// given per-robot stream seed (see CorruptCard/CorruptMessage). The robot
// still runs its algorithm honestly on what it observes — only its
// outgoing payloads lie.
func (w *World) SetByzantine(robotID int, seed uint64) error {
	i, ok := w.idIndex[robotID]
	if !ok {
		return fmt.Errorf("sim: no robot with ID %d", robotID)
	}
	w.byz[i] = true
	w.byzSeed[i] = seed
	return nil
}

// SetOverlay installs a dynamic edge mask over the world's graph: each
// round the overlay advances its seeded churn and robots moving through a
// closed port stay put. nil restores the static graph. The overlay must
// be over this world's graph. Like the scheduler, the overlay carries
// per-run state and is cleared by Reset; pooled sweeps Reset the overlay
// and reinstall it per job.
func (w *World) SetOverlay(o *graph.Overlay) error {
	if o != nil && o.Base() != w.g {
		return fmt.Errorf("sim: overlay is over a different graph than the world's")
	}
	w.overlay = o
	return nil
}

// Overlay returns the installed dynamic edge mask, nil when static.
func (w *World) Overlay() *graph.Overlay { return w.overlay }

// CrashedCount returns how many robots have fail-stopped so far.
func (w *World) CrashedCount() int {
	c := 0
	for _, x := range w.crashed {
		if x {
			c++
		}
	}
	return c
}

// RecoveredCount returns how many robots have resumed from a crash so
// far.
func (w *World) RecoveredCount() int {
	c := 0
	for _, x := range w.recovered {
		if x {
			c++
		}
	}
	return c
}

// DoneCount returns how many robots have terminated so far.
func (w *World) DoneCount() int {
	c := 0
	for _, d := range w.done {
		if d {
			c++
		}
	}
	return c
}

// Round returns the number of completed rounds.
func (w *World) Round() int { return w.round }

// Robots returns the number of robots in the world (crashed included).
func (w *World) Robots() int { return len(w.agents) }

// Position returns the current node of the i-th robot (by agent index).
func (w *World) Position(i int) int { return w.pos[i] }

// Positions returns a copy of the robots' current nodes. It allocates per
// call; per-round observers should use PositionsInto with a reused buffer.
func (w *World) Positions() []int { return append([]int(nil), w.pos...) }

// PositionsInto overwrites dst with the robots' current nodes, growing it
// only when its capacity is short, and returns the filled slice. Tracers
// and aggregation loops that run every round use it to observe positions
// without a per-call clone.
func (w *World) PositionsInto(dst []int) []int {
	dst = growSlice(dst, len(w.pos))
	copy(dst, w.pos)
	return dst
}

// Moves returns a copy of the per-robot edge-traversal counts. It
// allocates per call; hot aggregation paths should use MovesInto or
// MoveCount.
func (w *World) Moves() []int64 { return append([]int64(nil), w.moves...) }

// MovesInto overwrites dst with the per-robot edge-traversal counts,
// growing it only when its capacity is short, and returns the filled
// slice.
func (w *World) MovesInto(dst []int64) []int64 {
	dst = growSlice(dst, len(w.moves))
	copy(dst, w.moves)
	return dst
}

// MoveCount returns the edge-traversal count of the i-th robot (by agent
// index) without copying the whole counter slice.
func (w *World) MoveCount(i int) int64 { return w.moves[i] }

// OccupiedNodes returns the number of distinct nodes holding at least one
// live (non-crashed) robot, read from the incremental occupancy index.
func (w *World) OccupiedNodes() int { return w.occ.occupiedCount() }

// Graph returns the underlying graph.
func (w *World) Graph() *graph.Graph { return w.g }

// AllDone reports whether every live (non-crashed) robot has terminated.
func (w *World) AllDone() bool {
	for i, d := range w.done {
		if !d && !w.crashed[i] {
			return false
		}
	}
	return true
}

// AllColocated reports whether all live robots currently share one node.
// The occupancy index makes this O(1).
func (w *World) AllColocated() bool { return w.occ.allColocated() }

// RobotDone implements SchedView: whether agent index i has terminated.
func (w *World) RobotDone(i int) bool { return w.done[i] }

// Groups implements SchedView: the number of occupied nodes.
func (w *World) Groups() int { return len(w.occ.occupied) }

// Group implements SchedView: the gi-th occupied node in ascending node
// order and its ID-sorted bucket of live robots, straight from the
// occupancy index.
func (w *World) Group(gi int) (int, []int) {
	return w.occ.occupied[gi], w.occ.packs[gi]
}

func (w *World) noteGather() {
	if w.firstGather < 0 && w.occ.allColocated() {
		w.firstGather = w.round
	}
	if w.firstMeet < 0 && w.occ.anyMeeting() {
		w.firstMeet = w.round
	}
}

// Step executes one round of the phase pipeline: apply scheduled crashes,
// ask the scheduler which robots act, snapshot cards, run the
// communication phase (Compose + delivery), run the decision phase, then
// resolve Follow chains and apply all movements simultaneously.
//
// The five named phases are instrumented through the prof phase registry
// (prof.EnablePhases); when disabled — the default — each probe is a single
// predictable branch, so the hot loop stays allocation-free and the 0-alloc
// CI gates hold. The snapshot sub-phase is accounted to Observe.
func (w *World) Step() {
	s, t := w.observeRound()
	w.finishRound(s, prof.PhaseNext(prof.PhaseObserve, t))
}

// observeRound opens a round: it rolls churn, applies the faults due,
// asks the scheduler which robots act and builds every acting robot's
// view. It returns the scratch holding the views and the open observe
// timing span.
func (w *World) observeRound() (*scratch, time.Time) {
	s := w.ensureScratch()
	if w.overlay != nil {
		// Round 0 must see round-0 churn: a pooled overlay advanced by an
		// earlier run on this worker is rewound before its first use here,
		// so runs are bit-identical whatever overlay history they inherit.
		if w.round == 0 && w.overlay.Applied() > 0 {
			w.overlay.Reset()
		}
		w.overlay.AdvanceTo(w.round)
	}
	w.applyFaults()
	w.schedule(s)
	t := prof.PhaseStart()
	w.snapshotCards(s)
	w.observe(s)
	return s, t
}

// finishRound runs the rest of the round on the view observe built:
// communicate, decide, resolve and apply, then closes the round. t opens
// the communicate phase's timing span.
func (w *World) finishRound(s *scratch, t time.Time) {
	w.communicate(s)
	t = prof.PhaseNext(prof.PhaseCommunicate, t)
	w.decide(s)
	t = prof.PhaseNext(prof.PhaseDecide, t)
	w.resolveActions(s)
	t = prof.PhaseNext(prof.PhaseResolve, t)
	w.applyMoves(s)
	prof.PhaseEnd(prof.PhaseApply, t)
	w.round++
	w.stepped++
	w.noteGather()
	if w.tracer != nil {
		w.tracer.Observe(w)
	}
}

// scratch is the reusable per-round working state of the phase pipeline.
// Per-robot views are carved out of flat arenas instead of per-robot
// sub-slices: othersBuf holds every acting robot's co-located cards as
// contiguous runs (Env.Others aliases a run for the duration of the
// round), and messages are staged in compose order (staged/stagedDst)
// then counting-sorted into inboxBuf with per-robot extents in inboxOff.
// Memory is therefore O(k + traffic) flat words — no O(k) slice headers
// holding pooled capacity per robot.
type scratch struct {
	active    []bool
	cards     []Card
	envs      []Env
	othersBuf []Card    // flat arena of co-located-card runs, truncated per round
	staged    []Message // messages in sender/compose order, pre-delivery
	stagedDst []int32   // staged[t] is addressed to agent index stagedDst[t]
	inboxBuf  []Message // delivered messages, grouped by recipient
	inboxOff  []int32   // len k+1; inboxBuf[inboxOff[i]:inboxOff[i+1]] = robot i's inbox
	counts    []int32   // per-recipient counters for the counting sort
	acts      []Action
	resolved  []mv
	state     []int
}

// ensureScratch sizes the per-round scratch to the current robot count:
// allocated on first use, resliced within capacity after a same-or-smaller
// Reset, reallocated only when the world grows past every previous
// high-water mark. The arenas (othersBuf, staged, inboxBuf) grow by
// appending during the round and keep their high-water capacity.
func (w *World) ensureScratch() *scratch {
	s := &w.scratch
	if n := len(w.agents); len(s.cards) != n {
		s.active = growSlice(s.active, n)
		s.cards = growSlice(s.cards, n)
		s.envs = growSlice(s.envs, n)
		s.inboxOff = growSlice(s.inboxOff, n+1)
		s.counts = growSlice(s.counts, n)
		s.acts = growSlice(s.acts, n)
		s.resolved = growSlice(s.resolved, n)
		s.state = growSlice(s.state, n)
	}
	return s
}

// applyFaults executes scheduled crash and recovery faults at the round
// boundary: crashed robots leave the occupancy index and disappear from
// the system; recovering robots re-enter it at their crash position with
// their agent rewound to constructor state (amnesia — a prior
// termination is forgotten along with everything else), their arrival
// port cleared as at a fresh start, and their move odometer preserved
// (moves are a physical cost already paid).
func (w *World) applyFaults() {
	for i := range w.agents {
		if w.crashAt[i] == w.round && !w.crashed[i] {
			w.crashed[i] = true
			w.occ.del(i, w.pos[i])
		} else if w.crashed[i] && w.recoverAt[i] == w.round {
			w.crashed[i] = false
			w.recovered[i] = true
			w.agents[i].(Resettable).Reset(w.ids[i])
			w.arrival[i] = -1
			w.done[i] = false
			w.verdict[i] = false
			w.occ.add(i, w.pos[i])
		}
	}
}

// schedule asks the scheduler which robots are activated this round.
// Frozen (non-activated) robots skip every later phase but stay visible.
func (w *World) schedule(s *scratch) {
	for i := range s.active {
		s.active[i] = false
	}
	w.sched.Activate(w, s.active)
}

// acting reports whether robot i takes part in this round.
func (w *World) acting(s *scratch, i int) bool {
	return s.active[i] && !w.done[i] && !w.crashed[i]
}

// snapshotCards snapshots every robot's public card so all observations
// this round are simultaneous.
func (w *World) snapshotCards(s *scratch) {
	for i, a := range w.agents {
		s.cards[i] = a.Card()
		s.cards[i].Done = w.done[i]
		s.cards[i].Gathered = w.verdict[i]
		if w.byz[i] {
			s.cards[i] = CorruptCard(s.cards[i], w.byzSeed[i], w.round)
		}
	}
}

// observe assembles each acting robot's view: the ID-sorted cards of its
// co-located robots, read straight from the occupancy index packs into
// contiguous runs of the flat othersBuf arena, and the per-robot Env
// scratch handed to Compose and Decide. Runs stay valid for the round
// even if a later append grows the arena — the old backing array keeps
// the already-carved views, and cards are immutable once snapshotted.
func (w *World) observe(s *scratch) {
	s.othersBuf = s.othersBuf[:0]
	for gi, node := range w.occ.occupied {
		members := w.occ.packs[gi]
		for _, i := range members {
			if !w.acting(s, i) {
				continue
			}
			start := len(s.othersBuf)
			for _, j := range members {
				if j != i {
					s.othersBuf = append(s.othersBuf, s.cards[j])
				}
			}
			end := len(s.othersBuf)
			s.envs[i] = Env{
				Round:       w.round,
				Degree:      w.g.Degree(node),
				ArrivalPort: w.arrival[i],
				Others:      s.othersBuf[start:end:end],
			}
		}
	}
}

// communicate collects and delivers messages among co-located robots.
// Delivery order is deterministic: by sender agent index, then compose
// order. Only acting robots speak or listen; messages addressed to done,
// crashed or frozen robots are dropped, like any non-co-located
// destination in the F2F model.
func (w *World) communicate(s *scratch) {
	k := len(w.agents)
	s.staged = s.staged[:0]
	s.stagedDst = s.stagedDst[:0]
	counts := s.counts[:k]
	for i := range counts {
		counts[i] = 0
	}
	for i, a := range w.agents {
		if !w.acting(s, i) {
			continue
		}
		for mi, m := range a.Compose(&s.envs[i]) {
			m.From = w.ids[i]
			if w.byz[i] {
				m = CorruptMessage(m, w.byzSeed[i], w.round, mi)
			}
			if m.To == Broadcast {
				for _, j := range w.occ.at(w.pos[i]) {
					if j != i && w.acting(s, j) {
						s.staged = append(s.staged, m)
						s.stagedDst = append(s.stagedDst, int32(j))
						counts[j]++
					}
				}
				continue
			}
			j, ok := w.idIndex[m.To]
			if !ok || j == i || !w.acting(s, j) || w.pos[j] != w.pos[i] {
				continue
			}
			s.staged = append(s.staged, m)
			s.stagedDst = append(s.stagedDst, int32(j))
			counts[j]++
		}
	}
	// Stable counting sort of the staged messages into per-recipient runs:
	// stability preserves the delivery-order contract (sender agent index,
	// then compose order) the per-robot append inboxes implemented.
	s.inboxBuf = growSlice(s.inboxBuf, len(s.staged))
	off := s.inboxOff[:k+1]
	off[0] = 0
	for i := 0; i < k; i++ {
		off[i+1] = off[i] + counts[i]
	}
	copy(counts, off[:k]) // reuse counters as write cursors
	for t, m := range s.staged {
		d := s.stagedDst[t]
		s.inboxBuf[counts[d]] = m
		counts[d]++
	}
}

// decide runs each acting robot's decision phase; everyone else stays.
func (w *World) decide(s *scratch) {
	for i, a := range w.agents {
		if !w.acting(s, i) {
			s.acts[i] = StayAction()
			continue
		}
		s.envs[i].Inbox = s.inboxBuf[s.inboxOff[i]:s.inboxOff[i+1]:s.inboxOff[i+1]]
		s.acts[i] = a.Decide(&s.envs[i])
	}
}

// resolveActions turns the round's actions into concrete destinations,
// including Follow-chain resolution: a follower copies the edge its
// (co-located) target traverses. Chains resolve in at most n passes;
// robots in follow cycles or with invalid targets stay put.
func (w *World) resolveActions(s *scratch) {
	n := len(w.agents)
	resolved := s.resolved
	state := s.state // 0 unresolved (follow), 1 resolved
	for i := range state {
		state[i] = 0
	}
	for i := range w.agents {
		switch s.acts[i].Kind {
		case Stay:
			resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
			state[i] = 1
		case Terminate:
			w.done[i] = true
			w.verdict[i] = s.acts[i].Gathered
			resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
			state[i] = 1
		case Move:
			p := s.acts[i].Port
			if p < 0 || p >= w.g.Degree(w.pos[i]) {
				panic(fmt.Sprintf("sim: robot %d used invalid port %d at degree-%d node (round %d)",
					w.ids[i], p, w.g.Degree(w.pos[i]), w.round))
			}
			if w.overlay != nil && !w.overlay.Open(w.pos[i], p) {
				// Closed door: the robot spent the round pushing an edge the
				// churn adversary shut and stays put (followers of a blocked
				// mover stay with it — the chain copies moved=false).
				resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
			} else {
				to, rev := w.g.Neighbor(w.pos[i], p)
				resolved[i] = mv{node: to, arrival: rev, moved: true}
			}
			state[i] = 1
		case Follow:
			state[i] = 0
		}
	}
	for pass := 0; pass < n; pass++ {
		progress := false
		for i := range w.agents {
			if state[i] != 0 {
				continue
			}
			j, ok := w.idIndex[s.acts[i].Target]
			if !ok || w.pos[j] != w.pos[i] || j == i {
				resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
				state[i] = 1
				progress = true
				continue
			}
			if state[j] == 1 {
				r := resolved[j]
				if r.moved {
					resolved[i] = r // same edge, same destination and arrival port
				} else {
					resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
				}
				state[i] = 1
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for i := range w.agents {
		if state[i] == 0 { // follow cycle: everyone in it stays
			resolved[i] = mv{node: w.pos[i], arrival: w.arrival[i]}
		}
	}
}

// applyMoves applies all movements simultaneously and keeps the occupancy
// index incrementally in sync: only robots that actually changed node
// touch it.
func (w *World) applyMoves(s *scratch) {
	for i := range w.agents {
		r := s.resolved[i]
		if r.moved {
			w.moves[i]++
			if !w.crashed[i] {
				w.occ.move(i, w.pos[i], r.node)
			}
		}
		w.pos[i] = r.node
		w.arrival[i] = r.arrival
	}
}

// Result summarizes a finished (or aborted) run.
type Result struct {
	Rounds           int   // rounds simulated
	Stepped          int   // rounds Step executed; Run jumped the other Rounds - Stepped
	AllTerminated    bool  // every robot reached Terminate
	Gathered         bool  // all robots on one node at the end
	DetectionCorrect bool  // terminated, gathered, and every verdict is true
	FirstGatherRound int   // first round boundary with all robots co-located, -1 if never
	FirstMeetRound   int   // first round boundary with any two robots co-located, -1 if never
	TotalMoves       int64 // sum of edge traversals
	MaxMoves         int64 // max edge traversals by any robot
	Crashed          int   // robots that fail-stopped during the run
	Recovered        int   // robots that crashed and later recovered
	FinalPositions   []int
}

// Run steps the world until every robot terminates or maxRounds elapses,
// and returns the run summary.
//
// Run jumps quiet rounds instead of stepping them (stepOrJump): it builds
// each round's view once and asks every live robot how long it stays
// idle under that view, then either advances the clock and every live
// agent's counters by the smallest promise at once, or finishes the round
// on the same view. A jumped round is one in which no robot would have
// spoken, moved or changed its card, so the summary, and every agent's
// state, equals what stepping gives. Step never jumps, and a caller that
// steps by hand (a per-round predicate, a tracer) sees every round.
func (w *World) Run(maxRounds int) Result {
	jump := w.takeIdlers()
	for w.round < maxRounds && !w.AllDone() {
		if jump {
			w.stepOrJump(maxRounds)
		} else {
			w.Step()
		}
	}
	return w.Summary()
}

// takeIdlers reports whether this run may jump quiet rounds at all, and
// if so takes each agent's Idler view. The jump implements the paper's
// fully-synchronous model only: SemiSync and Adversarial schedulers draw
// per round, an overlay re-rolls churn per round, a Byzantine robot's
// corruption stream is keyed by round, and a tracer must observe every
// round — any of them keeps Run stepping.
func (w *World) takeIdlers() bool {
	if _, full := w.sched.(*FullSync); !full || w.tracer != nil || w.overlay != nil {
		return false
	}
	for _, b := range w.byz {
		if b {
			return false
		}
	}
	w.idlers = growSlice(w.idlers, len(w.agents))
	for i, a := range w.agents {
		w.idlers[i], _ = a.(Idler)
	}
	return true
}

// stepOrJump runs one round of a jumping Run: it builds the round's view
// and, unless a crash or recovery is due this round, asks every live
// robot for its promise under it (quietRounds). A positive minimum is
// jumped; otherwise the round runs on to its end on the view already
// built, exactly as Step would run it. Building the view of a jumped
// round is timed as observe.
func (w *World) stepOrJump(maxRounds int) {
	d := w.faultFree(maxRounds)
	s, t := w.observeRound()
	if d > 0 {
		d = w.quietRounds(s, d)
	}
	if d == 0 {
		w.finishRound(s, prof.PhaseNext(prof.PhaseObserve, t))
		return
	}
	prof.PhaseEnd(prof.PhaseObserve, t)
	w.skip(d)
}

// faultFree returns how many rounds, starting with this one, pass before
// the next scheduled crash or recovery, bounded by maxRounds: 0 when a
// fault is due this round.
func (w *World) faultFree(maxRounds int) int {
	d := maxRounds - w.round
	for i := range w.agents {
		if w.crashed[i] {
			if r := w.recoverAt[i]; r >= w.round {
				d = min(d, r-w.round)
			}
		} else if c := w.crashAt[i]; c >= w.round {
			d = min(d, c-w.round)
		}
	}
	return d
}

// quietRounds returns how many rounds Run may jump, at most d: the
// smallest promise of the live robots under this round's view, or 0 if
// one of them is not an Idler. The argument is an induction over the
// window: while every live robot keeps its promise, no robot speaks,
// moves, terminates or changes its card, and no fault fires, so every
// round shows every robot the same view and every promise still holds.
// Positions, arrival ports, cards, occupancy and the first-meet and
// first-gather marks cannot change inside the window.
func (w *World) quietRounds(s *scratch, d int) int {
	for i, idler := range w.idlers {
		if w.done[i] || w.crashed[i] {
			continue
		}
		if idler == nil {
			return 0
		}
		if d = min(d, idler.Idle(&s.envs[i])); d <= 0 {
			return 0
		}
	}
	return d
}

// skip jumps d quiet rounds: every live agent advances its counters by d
// and the round clock moves with them.
func (w *World) skip(d int) {
	for i, idler := range w.idlers {
		if !w.done[i] && !w.crashed[i] {
			idler.Skip(d)
		}
	}
	w.round += d
}

// SafeRun is Run with panic containment: an algorithm that violates its
// own invariants mid-run — legitimate outside the fully-synchronous
// model, e.g. map construction once its token partner freezes
// mid-handshake — surfaces as an error instead of unwinding the caller.
// Engine misuse (invalid ports) is contained the same way; the returned
// error carries the panic message.
func (w *World) SafeRun(maxRounds int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: run under scheduler %s panicked: %v", w.sched, r)
		}
	}()
	return w.Run(maxRounds), nil
}

// Summary returns the current run summary without stepping.
func (w *World) Summary() Result {
	res := Result{
		Rounds:           w.round,
		Stepped:          w.stepped,
		AllTerminated:    w.AllDone(),
		Gathered:         w.AllColocated(),
		FirstGatherRound: w.firstGather,
		FirstMeetRound:   w.firstMeet,
		Crashed:          w.CrashedCount(),
		Recovered:        w.RecoveredCount(),
		FinalPositions:   w.Positions(),
	}
	res.DetectionCorrect = res.AllTerminated && res.Gathered
	for i := range w.agents {
		if !w.verdict[i] && !w.crashed[i] {
			res.DetectionCorrect = false
		}
		res.TotalMoves += w.moves[i]
		if w.moves[i] > res.MaxMoves {
			res.MaxMoves = w.moves[i]
		}
	}
	return res
}
