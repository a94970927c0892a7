package gather

import "repro/internal/sim"

// dfsEnum enumerates, by physical walking, every port sequence of length
// <= maxDepth from the start node: the depth-bounded DFS of the paper's
// i-Hop-Meeting (§2.3). The graph is anonymous, so revisited nodes cannot
// be recognized and the enumeration is over the full port-sequence tree —
// this is exactly why the paper's cycle budget is Σ 2(n-1)^j. The walk
// backtracks over every edge, so it ends where it started.
type dfsEnum struct {
	maxDepth int
	stack    []dfsFrame
	started  bool
	lastDown bool
	finished bool
}

type dfsFrame struct {
	arrival  int // port through which this node was entered (-1 at root)
	nextPort int
}

func newDFSEnum(maxDepth int) *dfsEnum { return &dfsEnum{maxDepth: maxDepth} }

// Step is called once per round with the degree of the current node and
// the port through which the robot last arrived anywhere (sim's
// Env.ArrivalPort). It returns the port to move through this round, or -1
// when the enumeration is complete.
func (d *dfsEnum) Step(degree, lastArrival int) int {
	if d.finished {
		return -1
	}
	if !d.started {
		d.started = true
		d.stack = []dfsFrame{{arrival: -1}}
	} else if d.lastDown {
		// The previous round moved down into the node on top of the
		// stack; record how we entered it so we can backtrack.
		d.stack[len(d.stack)-1].arrival = lastArrival
	}
	d.lastDown = false

	top := &d.stack[len(d.stack)-1]
	// Descend while below the depth bound and candidate ports remain.
	if len(d.stack)-1 < d.maxDepth && top.nextPort < degree {
		p := top.nextPort
		top.nextPort++
		d.stack = append(d.stack, dfsFrame{arrival: -1})
		d.lastDown = true
		return p
	}
	// Backtrack.
	if len(d.stack) == 1 {
		d.finished = true
		return -1
	}
	up := top.arrival
	d.stack = d.stack[:len(d.stack)-1]
	return up
}

// Done reports whether the enumeration has completed.
func (d *dfsEnum) Done() bool { return d.finished }

// HopMeet is the i-Hop-Meeting controller (§2.3): the procedure runs in
// cycles of CycleT(i, n) rounds, one cycle per ID bit read LSB→MSB. In a
// 1-bit cycle the robot physically enumerates all port sequences of length
// <= i from its node and returns; in a 0-bit cycle (or once its bits are
// exhausted) it stays put. A robot freezes permanently the moment it is
// co-located with any other robot: the met pair is the undispersed seed
// the following Undispersed-Gathering run needs.
type HopMeet struct {
	radius   int //repolint:keep fixed per controller; Reset reruns the same radius
	cycleLen int //repolint:keep pure function of (cfg, radius, n) retained across runs
	total    int //repolint:keep pure function of (cfg, radius, n) retained across runs
	bits     []bool

	r      int
	frozen bool
	enum   *dfsEnum
}

// NewHopMeet returns the controller for a robot with the given ID running
// radius-hop meeting on an n-node graph under cfg.
func NewHopMeet(cfg Config, radius, n, id int) *HopMeet {
	return &HopMeet{
		radius:   radius,
		cycleLen: cfg.CycleT(radius, n),
		total:    cfg.HopDuration(radius, n),
		bits:     Bits(id),
	}
}

// Reset returns the controller to its NewHopMeet state for a new run as
// robot id: same radius and (cfg, n)-derived durations, fresh bit
// schedule, enumeration state cleared.
func (h *HopMeet) Reset(id int) {
	h.bits = AppendBits(h.bits[:0], id)
	h.r = 0
	h.frozen = false
	h.enum = nil
}

// Done reports whether the procedure's fixed duration has elapsed.
func (h *HopMeet) Done() bool { return h.r >= h.total }

// Met reports whether this robot froze after meeting another robot.
func (h *HopMeet) Met() bool { return h.frozen }

// Idle is the controller's sim.Idler promise under the view env. A robot
// that is not frozen and not alone freezes this round, so it promises
// nothing. Otherwise a frozen robot, or one whose bits are exhausted,
// holds position to the end of the procedure; one in a 0-bit cycle, or
// whose enumeration has finished, to the end of the cycle.
func (h *HopMeet) Idle(env *sim.Env) int {
	if h.r >= h.total || (!h.frozen && !env.Alone()) {
		return 0
	}
	left := h.total - h.r
	cycle, off := h.r/h.cycleLen, h.r%h.cycleLen
	switch {
	case h.frozen || cycle >= len(h.bits):
		return left
	case !h.bits[cycle] || (off > 0 && h.enum.Done()):
		return min(h.cycleLen-off, left)
	}
	return 0
}

// Skip advances the controller's round counter by r quiet rounds.
func (h *HopMeet) Skip(r int) { h.r += r }

// Decide consumes one round of the procedure.
func (h *HopMeet) Decide(env *sim.Env) sim.Action {
	if h.r >= h.total {
		return sim.StayAction()
	}
	cycle := h.r / h.cycleLen
	off := h.r % h.cycleLen
	h.r++

	// Meeting check: any co-location at a round boundary freezes the
	// robot for the remainder of the procedure.
	if !h.frozen && !env.Alone() {
		h.frozen = true
	}
	if h.frozen {
		return sim.StayAction()
	}
	if cycle >= len(h.bits) || !h.bits[cycle] {
		return sim.StayAction() // 0-bit or exhausted bits: hold position
	}
	if off == 0 {
		h.enum = newDFSEnum(h.radius)
	}
	if p := h.enum.Step(env.Degree, env.ArrivalPort); p >= 0 {
		return sim.MoveAction(p)
	}
	return sim.StayAction() // enumeration finished early; wait out the cycle
}

// HopMeetAgent is a standalone simulator agent for testing the procedure
// in isolation; Faster-Gathering embeds HopMeet directly.
type HopMeetAgent struct {
	sim.Base
	H *HopMeet
}

// NewHopMeetAgent returns a standalone i-Hop-Meeting agent.
func NewHopMeetAgent(cfg Config, radius, n, id int) *HopMeetAgent {
	return &HopMeetAgent{Base: sim.NewBase(id), H: NewHopMeet(cfg, radius, n, id)}
}

// Reset implements sim.Resettable.
func (a *HopMeetAgent) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.H.Reset(id)
}

// Idle implements sim.Idler. The round that brings the controller to its
// full duration terminates, so the promise stops one round short of it.
func (a *HopMeetAgent) Idle(env *sim.Env) int { return min(a.H.Idle(env), a.H.total-a.H.r-1) }

// Skip implements sim.Idler.
func (a *HopMeetAgent) Skip(r int) { a.H.Skip(r) }

// Decide implements sim.Agent.
func (a *HopMeetAgent) Decide(env *sim.Env) sim.Action {
	act := a.H.Decide(env)
	if a.H.Done() {
		return sim.TerminateAction(!env.Alone())
	}
	return act
}
