package gather

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/sim"
)

// Robot states of Undispersed-Gathering (§2.2), published in sim.Card.State.
const (
	StateWaiter = iota // alone in the initial configuration
	StateFinder        // minimum ID among initially co-located robots
	StateHelper        // initially co-located, not minimum ID (or captured later)
)

// UG is the Undispersed-Gathering controller (§2.2, Theorem 8). It runs
// for exactly R(n) = R₁(n) + 2n rounds:
//
//   - Phase 1, rounds [0, R₁): every finder, using one of its co-located
//     helpers as a movable token, learns a port-respecting isomorphic map
//     of the graph (internal/mapping). Waiters and spare helpers hold
//     position.
//   - Phase 2, rounds [R₁, R₁+2n): every finder walks the Euler tour of a
//     spanning tree of its map, collecting robots under the paper's
//     capture rules; all robots end on the minimum-groupid finder's start
//     node by the round counter R(n).
//
// The controller is embedded both by the standalone UGAgent and by
// Faster-Gathering's step machine. After each Decide the owner must
// publish the controller's state via Sync (cards are snapshotted at round
// start, so peers see states exactly one round after they change — the
// capture rules remain correct under this, see the package tests).
type UG struct {
	n  int
	id int

	r     int
	r1    int
	total int

	state   int
	groupid int
	leader  int // ID followed, -1 when not following

	builder *mapping.Builder
	token   mapping.Token
	isToken bool
	inited  bool

	tour    []int
	tourIdx int
}

// NewUG returns the controller for robot id on an n-node graph.
func NewUG(n, id int) *UG {
	return &UG{n: n, id: id, r1: R1(n), total: R(n), leader: -1, groupid: -1}
}

// Reset returns the controller to its NewUG(n, id) state for a new run as
// robot id, keeping the graph size (and hence the R₁/R budgets) it was
// built with. The map builder and token are rebuilt lazily by init, as in
// a fresh controller.
func (u *UG) Reset(id int) {
	*u = UG{n: u.n, id: id, r1: u.r1, total: u.total, leader: -1, groupid: -1}
}

// Done reports whether the fixed R(n) budget has elapsed.
func (u *UG) Done() bool { return u.r >= u.total }

// State returns the controller's current robot state constant.
func (u *UG) State() int { return u.state }

// Sync publishes the controller's observable fields into the owner's card.
func (u *UG) Sync(c *sim.Card) {
	c.State = u.state
	c.GroupID = u.groupid
	c.Leader = u.leader
}

// init assigns the initial state from round-0 co-location: the minimum ID
// on a multi-robot node is the finder, the rest are helpers (the smallest
// helper ID acts as the token), and lone robots are waiters.
func (u *UG) init(env *sim.Env) {
	u.inited = true
	if env.Alone() {
		u.state = StateWaiter
		u.groupid = -1
		return
	}
	minID, minOther := u.id, -1
	for _, c := range env.Others {
		if c.ID < minID {
			minID = c.ID
		}
		if minOther < 0 || c.ID < minOther {
			minOther = c.ID
		}
	}
	if minID == u.id {
		u.state = StateFinder
		u.groupid = u.id
		u.builder = mapping.NewBuilder(u.n, minOther)
		return
	}
	u.state = StateHelper
	u.groupid = minID
	// The smallest non-finder ID serves as the token.
	u.isToken = u.id == minSansFinder(env, minID, u.id)
	if u.isToken {
		u.token = mapping.NewToken(minID)
	}
}

func minSansFinder(env *sim.Env, finderID, selfID int) int {
	min := selfID
	for _, c := range env.Others {
		if c.ID != finderID && c.ID < min {
			min = c.ID
		}
	}
	return min
}

// Idle is the controller's sim.Idler promise under the view env. A
// controller that has not read its round-0 co-location yet promises
// nothing, and neither does a finder that is still mapping, planning its
// tour (at R₁) or touring; a finder whose map is done holds position
// until R₁. Every other robot holds position, or follows, until R(n)
// unless the Phase 2 rules would capture or re-point it under env, in
// which case its promise ends where Phase 2 starts. The Phase 1 token
// obeys only messages, and the inbox of a quiet round is empty.
func (u *UG) Idle(env *sim.Env) int {
	switch {
	case !u.inited || u.r >= u.total:
		return 0
	case u.state == StateFinder && u.r < u.r1:
		if !u.builder.Done() {
			return 0
		}
		return u.r1 - u.r
	case u.state == StateFinder && (u.r == u.r1 || u.tourIdx < len(u.tour)):
		return 0
	case u.captured(env):
		return max(u.r1-u.r, 0)
	}
	return u.total - u.r
}

// captured reports whether a Phase 2 round under env would change this
// robot's state: any finder captures a waiter, a finder with a smaller
// groupid re-points a helper, and a finder or helper with a smaller
// groupid captures or parks a finder.
func (u *UG) captured(env *sim.Env) bool {
	for _, c := range env.Others {
		switch c.State {
		case StateFinder:
			if u.state == StateWaiter || c.GroupID < u.groupid {
				return true
			}
		case StateHelper:
			if u.state == StateFinder && c.GroupID < u.groupid {
				return true
			}
		}
	}
	return false
}

// Skip advances the controller's round counters by r quiet rounds: its
// own and, in Phase 1, its map builder's.
func (u *UG) Skip(r int) {
	if u.state == StateFinder && u.r < u.r1 {
		u.builder.Skip(r)
	}
	u.r += r
}

// Compose implements the communication half of the round.
func (u *UG) Compose(env *sim.Env) []sim.Message {
	if !u.inited {
		u.init(env)
	}
	if u.state == StateFinder && u.r < u.r1 {
		return u.builder.Compose(env)
	}
	return nil
}

// Decide implements the compute+move half of the round.
func (u *UG) Decide(env *sim.Env) sim.Action {
	if !u.inited { // owner skipped Compose (cannot happen via agents)
		u.init(env)
	}
	if u.r >= u.total {
		return sim.StayAction()
	}
	r := u.r
	u.r++

	if r < u.r1 { // Phase 1: map finding
		switch {
		case u.state == StateFinder:
			return u.builder.Decide(env)
		case u.state == StateHelper && u.isToken:
			u.token.Update(env.Inbox)
			return u.token.Action()
		default:
			return sim.StayAction()
		}
	}

	// Phase 2: gathering.
	if r == u.r1 && u.state == StateFinder {
		u.prepareTour()
	}
	switch u.state {
	case StateFinder:
		return u.finderPhase2(env)
	case StateHelper:
		return u.helperPhase2(env)
	default:
		return u.waiterPhase2(env)
	}
}

// prepareTour finalizes the learned map and plans the Euler tour of a
// spanning tree rooted at the finder's home (map node 0): exactly 2(n-1)
// moves, the paper's "2n rounds" exploration.
func (u *UG) prepareTour() {
	if !u.builder.Done() {
		panic(fmt.Sprintf("gather: finder %d map not finished within R1=%d", u.id, u.r1))
	}
	m, err := u.builder.Map()
	if err != nil {
		panic(fmt.Sprintf("gather: finder %d map finalize: %v", u.id, err))
	}
	u.tour = m.BFSTree(0).EulerTourPorts()
	u.tourIdx = 0
}

// finderPhase2 applies the paper's finder rules: keep touring while no
// co-located robot has a strictly smaller groupid; a finder with the
// smallest groupid captures this robot as a follower; a helper with the
// smallest groupid parks it on the spot.
func (u *UG) finderPhase2(env *sim.Env) sim.Action {
	minFinderG, minFinderID := -1, -1
	minHelperG := -1
	for _, c := range env.Others {
		switch c.State {
		case StateFinder:
			if minFinderG < 0 || c.GroupID < minFinderG {
				minFinderG, minFinderID = c.GroupID, c.ID
			}
		case StateHelper:
			if minHelperG < 0 || c.GroupID < minHelperG {
				minHelperG = c.GroupID
			}
		}
	}
	smallerFinder := minFinderG >= 0 && minFinderG < u.groupid
	smallerHelper := minHelperG >= 0 && minHelperG < u.groupid
	switch {
	case smallerFinder && (!smallerHelper || minFinderG <= minHelperG):
		u.state = StateHelper
		u.groupid = minFinderG
		u.leader = minFinderID
		return sim.FollowAction(u.leader)
	case smallerHelper:
		u.state = StateHelper
		u.groupid = minHelperG
		u.leader = -1
		return sim.StayAction()
	}
	if u.tourIdx < len(u.tour) {
		p := u.tour[u.tourIdx]
		u.tourIdx++
		return sim.MoveAction(p)
	}
	return sim.StayAction() // tour complete: rest at home until R(n)
}

// helperPhase2: hold position (or keep following) until a finder with a
// strictly smaller groupid arrives, then follow it.
func (u *UG) helperPhase2(env *sim.Env) sim.Action {
	minG, minID := -1, -1
	for _, c := range env.Others {
		if c.State == StateFinder && (minG < 0 || c.GroupID < minG) {
			minG, minID = c.GroupID, c.ID
		}
	}
	if minG >= 0 && minG < u.groupid {
		u.groupid = minG
		u.leader = minID
	}
	if u.leader >= 0 {
		return sim.FollowAction(u.leader)
	}
	return sim.StayAction()
}

// waiterPhase2: hold position until any finder arrives, then become a
// helper following the minimum-groupid finder.
func (u *UG) waiterPhase2(env *sim.Env) sim.Action {
	minG, minID := -1, -1
	for _, c := range env.Others {
		if c.State == StateFinder && (minG < 0 || c.GroupID < minG) {
			minG, minID = c.GroupID, c.ID
		}
	}
	if minG < 0 {
		return sim.StayAction()
	}
	u.state = StateHelper
	u.groupid = minG
	u.leader = minID
	return sim.FollowAction(u.leader)
}

// UGAgent is the standalone Undispersed-Gathering robot: it runs the UG
// controller for R(n) rounds and then terminates, reporting gathering
// exactly when it is not alone (Lemma 11's detection rule).
type UGAgent struct {
	sim.Base
	U *UG
}

// NewUGAgent returns a standalone Undispersed-Gathering agent.
func NewUGAgent(n, id int) *UGAgent {
	return &UGAgent{Base: sim.NewBase(id), U: NewUG(n, id)}
}

// Reset implements sim.Resettable: the agent restarts as robot id, exactly
// as NewUGAgent would build it.
func (a *UGAgent) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.U.Reset(id)
}

// Idle implements sim.Idler. The controller's promise ends at R(n), the
// round in which the agent terminates.
func (a *UGAgent) Idle(env *sim.Env) int { return a.U.Idle(env) }

// Skip implements sim.Idler.
func (a *UGAgent) Skip(r int) { a.U.Skip(r) }

// Compose implements sim.Agent.
func (a *UGAgent) Compose(env *sim.Env) []sim.Message {
	msgs := a.U.Compose(env)
	a.U.Sync(&a.Self)
	return msgs
}

// Decide implements sim.Agent.
func (a *UGAgent) Decide(env *sim.Env) sim.Action {
	if a.U.Done() {
		return sim.TerminateAction(!env.Alone())
	}
	act := a.U.Decide(env)
	a.U.Sync(&a.Self)
	return act
}
