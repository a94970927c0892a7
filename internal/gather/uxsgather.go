package gather

import (
	"math"

	"repro/internal/sim"
	"repro/internal/uxs"
)

// UXSG is the UXS-based gathering-with-detection controller (§2.1,
// Theorem 6). It works for any number of robots and any initial
// configuration, in Õ(n⁵) rounds under paper-faithful sequence lengths.
//
// Robots operate in phases of 2T rounds, one per ID bit read LSB→MSB: on a
// 1-bit the group leader explores with the UXS for T rounds then waits T;
// on a 0-bit the order is reversed. Groups follow their largest-ID robot
// and merge on any co-location. A leader whose bits are exhausted waits a
// final 2T rounds; if nobody shows up, gathering is complete (Lemma 2) and
// it terminates, telling its followers to do the same.
type UXSG struct {
	n    int //repolint:keep graph size is fixed per controller; Reset reruns on the same n
	id   int
	T    int      //repolint:keep pure function of (cfg, n) retained across runs
	seq  *uxs.UXS //repolint:keep pure function of (cfg, n), identical for every run
	bits []bool

	r      int
	leader int // -1 while leading
	done   bool
}

// NewUXSG returns the controller for robot id on an n-node graph under cfg.
func NewUXSG(cfg Config, n, id int) *UXSG {
	T := cfg.UXSLength(n)
	return &UXSG{
		n:      n,
		id:     id,
		T:      T,
		seq:    uxs.WithLength(n, T),
		bits:   Bits(id),
		leader: -1,
	}
}

// Reset returns the controller to its NewUXSG state for a new run as
// robot id. The sequence and phase length depend only on the retained
// (cfg, n), so they are reused; the bit schedule is recomputed in place.
func (g *UXSG) Reset(id int) {
	g.id = id
	g.bits = AppendBits(g.bits[:0], id)
	g.r = 0
	g.leader = -1
	g.done = false
}

// Terminated reports whether the controller decided gathering is complete.
func (g *UXSG) Terminated() bool { return g.done }

// waitEnd is the round at which this robot's terminal 2T wait expires.
func (g *UXSG) waitEnd() int { return (len(g.bits) + 1) * 2 * g.T }

// biggestAlive returns the largest co-located live robot ID, and whether a
// co-located robot has already terminated with a larger ID (which can only
// mean gathering completed at this node).
func (g *UXSG) biggest(env *sim.Env) (maxLive int, doneBigger bool) {
	maxLive = -1
	for _, c := range env.Others {
		if c.Done {
			if c.ID > g.id {
				doneBigger = true
			}
			continue
		}
		if c.ID > maxLive {
			maxLive = c.ID
		}
	}
	return maxLive, doneBigger
}

// aboutToTerminate reports whether this round is the leader's termination
// round: terminal wait expired, still leading, and no larger live robot
// just arrived.
func (g *UXSG) aboutToTerminate(env *sim.Env) bool {
	if g.done || g.leader >= 0 || g.r != g.waitEnd() {
		return false
	}
	maxLive, _ := g.biggest(env)
	return maxLive <= g.id
}

// Idle is the controller's sim.Idler promise under the view env. A robot
// that sees a larger terminated robot terminates, and one that sees a
// live robot larger than its leader (or than itself, while leading)
// re-points; neither promises anything. Otherwise a follower holds its
// place behind its leader indefinitely, since the leader's own promise
// ends before the round it terminates in; a leader holds position to the
// end of a waiting half, or of the terminal wait, up to the round in
// which it terminates.
func (g *UXSG) Idle(env *sim.Env) int {
	if g.done {
		return 0
	}
	maxLive, doneBigger := g.biggest(env)
	switch {
	case doneBigger:
		return 0
	case g.leader >= 0:
		if maxLive > g.leader {
			return 0
		}
		return math.MaxInt
	case maxLive > g.id:
		return 0
	}
	phase, off := g.r/(2*g.T), g.r%(2*g.T)
	switch {
	case phase >= len(g.bits):
		return max(g.waitEnd()-g.r, 0)
	case g.bits[phase] && off >= g.T:
		return 2*g.T - off // explored first, now waiting
	case !g.bits[phase] && off < g.T:
		return g.T - off // waiting first, exploring next
	}
	return 0
}

// Skip advances the controller's round counter by r quiet rounds.
func (g *UXSG) Skip(r int) { g.r += r }

// Compose broadcasts the termination order to followers in the same round
// the leader terminates, so the whole group stops together (Lemma 4).
func (g *UXSG) Compose(env *sim.Env) []sim.Message {
	if g.aboutToTerminate(env) {
		return []sim.Message{{To: sim.Broadcast, Kind: sim.MsgTerminate}}
	}
	return nil
}

// Decide consumes one round.
func (g *UXSG) Decide(env *sim.Env) sim.Action {
	if g.done {
		return sim.StayAction()
	}
	r := g.r
	g.r++

	maxLive, doneBigger := g.biggest(env)

	// A terminated larger robot on this node means the gathering already
	// completed here; join the verdict.
	if doneBigger {
		g.done = true
		return sim.TerminateAction(true)
	}

	if g.leader >= 0 {
		// Follower: terminate with the leader, or re-point to a larger
		// leader after a merge.
		for _, m := range env.Inbox {
			if m.Kind == sim.MsgTerminate && m.From == g.leader {
				g.done = true
				return sim.TerminateAction(true)
			}
		}
		if maxLive > g.leader {
			g.leader = maxLive
		}
		return sim.FollowAction(g.leader)
	}

	// Leader: merge into any larger group on contact.
	if maxLive > g.id {
		g.leader = maxLive
		return sim.FollowAction(g.leader)
	}

	twoT := 2 * g.T
	phase := r / twoT
	off := r % twoT
	if phase < len(g.bits) {
		bit := g.bits[phase]
		exploring := off < g.T
		if !bit {
			exploring = off >= g.T
		}
		if exploring {
			step := off % g.T
			entry := env.ArrivalPort
			if step == 0 {
				entry = -1 // each exploration restarts the sequence afresh
			}
			return sim.MoveAction(g.seq.NextPort(step, entry, env.Degree))
		}
		return sim.StayAction()
	}

	// Terminal wait of 2T rounds, then terminate (Lemma 2 guarantees
	// correctness: nobody arriving means nobody is still working).
	if r < g.waitEnd() {
		return sim.StayAction()
	}
	g.done = true
	return sim.TerminateAction(true)
}

// UXSGAgent is the standalone §2.1 agent. It doubles as the Ta-Shma–Zwick
// style baseline for gathering *without* detection: the harness reads
// Result.FirstGatherRound for the gather time and Result.Rounds for the
// detect time.
type UXSGAgent struct {
	sim.Base
	G *UXSG
}

// NewUXSGAgent returns a standalone UXS-gathering agent.
func NewUXSGAgent(cfg Config, n, id int) *UXSGAgent {
	return &UXSGAgent{Base: sim.NewBase(id), G: NewUXSG(cfg, n, id)}
}

// Reset implements sim.Resettable.
func (a *UXSGAgent) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.G.Reset(id)
}

// Idle implements sim.Idler.
func (a *UXSGAgent) Idle(env *sim.Env) int { return a.G.Idle(env) }

// Skip implements sim.Idler.
func (a *UXSGAgent) Skip(r int) { a.G.Skip(r) }

// Compose implements sim.Agent.
func (a *UXSGAgent) Compose(env *sim.Env) []sim.Message { return a.G.Compose(env) }

// Decide implements sim.Agent.
func (a *UXSGAgent) Decide(env *sim.Env) sim.Action {
	act := a.G.Decide(env)
	a.Self.Leader = a.G.leader
	return act
}
