package gather

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/uxs"
)

// errTooManyForBeep rejects beep-model runs beyond the two-robot setting
// of Elouasbi–Pelc [21].
var errTooManyForBeep = errors.New("gather: the beeping-model algorithm handles at most two robots")

// BeepG is a gathering-with-detection controller for the *beeping model*
// the paper contrasts against (§1.4, Elouasbi–Pelc [21]): co-located
// robots cannot exchange messages or read each other's state — the only
// signal is an anonymous beep heard by everyone on the node. [21] solves
// gathering with detection for exactly two robots in this model; this
// controller implements the two-robot setting on top of our substrate.
//
// The movement schedule is the same bit-driven UXS wait/explore of §2.1
// (whose meeting guarantee — Lemmas 1 and 2 — only needs one robot to sit
// still while the other runs the full sequence). Communication is reduced
// to the weakest possible protocol: every robot beeps every round.
// Hearing a beep means another robot shares the node, which for k = 2 is
// gathering — both robots hear each other in the same round and terminate
// together. A robot that exhausts its bits and waits 2T rounds in silence
// is alone in the graph (k = 1) and also terminates correctly.
//
// The controller deliberately never reads Env.Others: the beep is its
// whole perception of other robots.
type BeepG struct {
	n    int //repolint:keep graph size is fixed per controller; Reset reruns on the same n
	id   int
	T    int      //repolint:keep pure function of (cfg, n) retained across runs
	seq  *uxs.UXS //repolint:keep pure function of (cfg, n), identical for every run
	bits []bool

	r    int
	done bool
}

// NewBeepG returns the beeping-model controller for robot id on an n-node
// graph under cfg.
func NewBeepG(cfg Config, n, id int) *BeepG {
	T := cfg.UXSLength(n)
	return &BeepG{n: n, id: id, T: T, seq: uxs.WithLength(n, T), bits: Bits(id)}
}

// Reset returns the controller to its NewBeepG state for a new run as
// robot id, reusing the (cfg, n)-derived sequence.
func (g *BeepG) Reset(id int) {
	g.id = id
	g.bits = AppendBits(g.bits[:0], id)
	g.r = 0
	g.done = false
}

// Terminated reports whether the controller concluded gathering.
func (g *BeepG) Terminated() bool { return g.done }

// Compose implements the communication phase: beep, every round, until
// terminated.
func (g *BeepG) Compose(env *sim.Env) []sim.Message {
	if g.done {
		return nil
	}
	return []sim.Message{{To: sim.Broadcast, Kind: sim.MsgBeep}}
}

// Decide consumes one round of the beeping-model schedule.
func (g *BeepG) Decide(env *sim.Env) sim.Action {
	if g.done {
		return sim.StayAction()
	}
	r := g.r
	g.r++

	for _, m := range env.Inbox {
		if m.Kind == sim.MsgBeep {
			// Someone else is here: with two robots, that is gathering,
			// and the peer hears our beep in the same round.
			g.done = true
			return sim.TerminateAction(true)
		}
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
				entry = -1
			}
			return sim.MoveAction(g.seq.NextPort(step, entry, env.Degree))
		}
		return sim.StayAction()
	}
	if r < (len(g.bits)+1)*twoT {
		return sim.StayAction()
	}
	// Full schedule elapsed in silence: no other robot exists.
	g.done = true
	return sim.TerminateAction(true)
}

// BeepAgent is the standalone beeping-model agent (two-robot setting).
type BeepAgent struct {
	sim.Base
	G *BeepG
}

// NewBeepAgent returns a standalone beeping-model gathering agent.
func NewBeepAgent(cfg Config, n, id int) *BeepAgent {
	return &BeepAgent{Base: sim.NewBase(id), G: NewBeepG(cfg, n, id)}
}

// Reset implements sim.Resettable.
func (a *BeepAgent) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.G.Reset(id)
}

// Compose implements sim.Agent.
func (a *BeepAgent) Compose(env *sim.Env) []sim.Message { return a.G.Compose(env) }

// Decide implements sim.Agent.
func (a *BeepAgent) Decide(env *sim.Env) sim.Action { return a.G.Decide(env) }
