package gather

import "repro/internal/sim"

// Segment kinds of the Faster-Gathering master schedule (§2.3).
type segKind int

const (
	segUG segKind = iota
	segHop
	segUXS
)

// segment is one stage of the schedule. UG segments have an implicit
// detection boundary after their R(n) rounds: a robot that is not alone
// there terminates (Lemma 11 guarantees all robots agree); a lone robot
// advances to the next segment in the same round, keeping everyone
// synchronized.
type segment struct {
	kind   segKind
	radius int // for segHop
}

// schedule returns the segment list of Faster-Gathering: Step 1 is
// Undispersed-Gathering alone; Steps 2..6 are (i−1)-Hop-Meeting followed
// by Undispersed-Gathering; Step 7 is the UXS algorithm, which always
// finishes the job. With the Remark 13 oracle (cfg.KnownDistance), the
// schedule jumps directly to the step that handles the known distance.
func schedule(cfg Config) []segment {
	if d := cfg.KnownDistance; d > 0 {
		if d > 5 {
			return []segment{{kind: segUXS}}
		}
		return []segment{{kind: segHop, radius: d}, {kind: segUG}, {kind: segUXS}}
	}
	segs := []segment{{kind: segUG}}
	for i := 2; i <= 6; i++ {
		segs = append(segs, segment{kind: segHop, radius: i - 1}, segment{kind: segUG})
	}
	return append(segs, segment{kind: segUXS})
}

// FasterAgent is the complete Faster-Gathering robot (Theorems 12 and 16):
// it walks the master schedule, instantiating fresh controllers per
// segment, and terminates at the first UG boundary where it is not alone —
// or inside the final UXS stage, which carries its own detection.
type FasterAgent struct {
	sim.Base
	cfg Config //repolint:keep construction-time config; Reset reruns under the same cfg
	n   int    //repolint:keep graph size is fixed per agent; Reset reruns on the same n

	segs []segment //repolint:keep pure function of the retained cfg, identical for every run
	si   int       // current segment index
	lr   int       // local round within the current segment
	dur  int       // duration of the current segment (0 for the self-timed UXS stage)

	ug   *UG
	hop  *HopMeet
	uxsg *UXSG
}

// NewFasterAgent returns a Faster-Gathering robot with the given ID on an
// n-node graph.
func NewFasterAgent(cfg Config, n, id int) *FasterAgent {
	a := &FasterAgent{Base: sim.NewBase(id), cfg: cfg, n: n, segs: schedule(cfg)}
	a.enter(0)
	return a
}

// Reset implements sim.Resettable: the agent restarts as robot id with the
// config and graph size it was built for. The segment list is a pure
// function of the retained config, so it is kept; the first segment's
// controller is rebuilt exactly as the constructor does.
func (a *FasterAgent) Reset(id int) {
	a.Base = sim.NewBase(id)
	a.enter(0)
}

// enter instantiates the controller for segment si.
func (a *FasterAgent) enter(si int) {
	a.si = si
	a.lr = 0
	a.dur = a.segLen(si)
	a.ug, a.hop, a.uxsg = nil, nil, nil
	switch s := a.segs[si]; s.kind {
	case segUG:
		a.ug = NewUG(a.n, a.ID())
	case segHop:
		a.hop = NewHopMeet(a.cfg, s.radius, a.n, a.ID())
	case segUXS:
		a.uxsg = NewUXSG(a.cfg, a.n, a.ID())
	}
}

// segLen returns the fixed duration of segment si (0 for the self-timed
// UXS stage).
func (a *FasterAgent) segLen(si int) int {
	switch s := a.segs[si]; s.kind {
	case segUG:
		return R(a.n)
	case segHop:
		return a.cfg.HopDuration(s.radius, a.n)
	default:
		return 0
	}
}

// Idle implements sim.Idler: the active controller's promise under env,
// capped at the rounds left before the segment boundary, where the
// schedule advances or detects.
func (a *FasterAgent) Idle(env *sim.Env) int {
	switch a.segs[a.si].kind {
	case segUG:
		return min(a.ug.Idle(env), a.dur-a.lr)
	case segHop:
		return min(a.hop.Idle(env), a.dur-a.lr)
	default:
		return a.uxsg.Idle(env)
	}
}

// Skip implements sim.Idler. The self-timed UXS stage keeps no local
// round of its own.
func (a *FasterAgent) Skip(r int) {
	switch a.segs[a.si].kind {
	case segUG:
		a.lr += r
		a.ug.Skip(r)
	case segHop:
		a.lr += r
		a.hop.Skip(r)
	default:
		a.uxsg.Skip(r)
	}
}

// Compose implements sim.Agent, routing the communication phase to the
// active controller.
func (a *FasterAgent) Compose(env *sim.Env) []sim.Message {
	switch a.segs[a.si].kind {
	case segUG:
		if a.lr < a.dur {
			msgs := a.ug.Compose(env)
			a.ug.Sync(&a.Self)
			return msgs
		}
	case segUXS:
		return a.uxsg.Compose(env)
	}
	return nil
}

// Decide implements sim.Agent.
func (a *FasterAgent) Decide(env *sim.Env) sim.Action {
	for {
		s := a.segs[a.si]
		switch s.kind {
		case segHop:
			if a.lr < a.dur {
				a.lr++
				return a.hop.Decide(env)
			}
			a.enter(a.si + 1) // hop duration elapsed: same-round fall-through

		case segUG:
			if a.lr < a.dur {
				a.lr++
				act := a.ug.Decide(env)
				a.ug.Sync(&a.Self)
				return act
			}
			// Detection boundary (Lemma 11): not alone means everyone
			// gathered; alone means everyone is alone, so advance.
			if !env.Alone() {
				return sim.TerminateAction(true)
			}
			a.enter(a.si + 1)

		case segUXS:
			return a.uxsg.Decide(env)
		}
	}
}
