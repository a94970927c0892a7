// Package sim implements the synchronous mobile-robot execution model of
// the paper (§1.1): in every round each robot first exchanges messages with
// the robots co-located on its node (Face-to-Face communication) and
// computes, then optionally moves across one edge. All robots start awake
// at round 0 and the schedule is fully synchronous.
//
// The engine is deliberately anonymous-faithful: an agent never learns the
// simulator's node indices. The only observations exposed are the degree of
// the current node, the port through which the robot last arrived, the
// public Cards of co-located robots, and the messages delivered this round.
package sim

// Card is the public state a robot exposes to co-located robots. The
// Face-to-Face model lets co-located robots exchange arbitrary messages;
// the Card plays the role of the fields every algorithm in the paper
// broadcasts on meeting (ID, state, groupid, who it follows, its knowledge
// of n). Cards are snapshotted by the engine at the start of each round, so
// all robots observe a consistent simultaneous view.
type Card struct {
	ID       int  // unique robot label in [1, n^b]
	State    int  // algorithm-specific state code (e.g. finder/helper/waiter)
	GroupID  int  // paper's groupid; -1 for waiters
	Leader   int  // ID of the robot this one follows, or -1
	N        int  // the value of n this robot knows/advertises (0 if none)
	Aux      int  // algorithm-specific extra field
	Done     bool // robot has terminated
	Gathered bool // termination verdict: "gathering is complete"
}

// MsgKind distinguishes message types exchanged between co-located robots.
type MsgKind int

// Message kinds used by the algorithms in internal/gather and
// internal/mapping. They live here so the engine can be exercised
// independently of any particular algorithm.
const (
	MsgNone      MsgKind = iota
	MsgShareN            // A = value of n
	MsgTake              // "follow me from now on" (finder to helper/waiter)
	MsgStayHere          // "stop following me and hold this node" (finder parking its token)
	MsgTerminate         // leader tells followers gathering is done
	MsgBeep              // anonymous beep (the beeping model of Cornejo–Kuhn / Elouasbi–Pelc)
	MsgCustom            // free-form, interpreted by A/B
)

// Message is a point-to-point or broadcast message between co-located
// robots. To == Broadcast delivers to every robot on the node except the
// sender.
type Message struct {
	From, To int // robot IDs
	Kind     MsgKind
	A, B     int
}

// Broadcast is the wildcard destination for Message.To.
const Broadcast = -1

// Env is the observation a robot receives in a round. It contains no node
// identity: the model's graphs are anonymous.
type Env struct {
	Round       int       // current round number, starting at 0
	Degree      int       // degree of the current node
	ArrivalPort int       // port through which the robot entered this node, -1 at start
	Others      []Card    // cards of co-located robots (self excluded), sorted by ID
	Inbox       []Message // messages delivered this round (Decide phase only)
}

// OtherByID returns the co-located card with the given ID, if present.
func (e *Env) OtherByID(id int) (Card, bool) {
	for _, c := range e.Others {
		if c.ID == id {
			return c, true
		}
	}
	return Card{}, false
}

// Alone reports whether no other robot shares the node.
func (e *Env) Alone() bool { return len(e.Others) == 0 }

// ActionKind enumerates what a robot can do in the movement phase.
type ActionKind int

// Possible actions. Follow moves the robot along whatever edge its target
// (which must be co-located) traverses this round, implementing the paper's
// "starts following" semantics atomically within a round.
const (
	Stay ActionKind = iota
	Move
	Follow
	Terminate
)

// Action is a robot's decision for the movement phase of a round.
type Action struct {
	Kind     ActionKind
	Port     int  // for Move
	Target   int  // robot ID, for Follow
	Gathered bool // verdict, for Terminate
}

// StayAction, MoveAction, FollowAction and TerminateAction are convenience
// constructors that keep algorithm code terse and readable.
func StayAction() Action             { return Action{Kind: Stay} }
func MoveAction(port int) Action     { return Action{Kind: Move, Port: port} }
func FollowAction(target int) Action { return Action{Kind: Follow, Target: target} }
func TerminateAction(ok bool) Action { return Action{Kind: Terminate, Gathered: ok} }

// Agent is a robot algorithm. The engine calls Compose for the
// communication phase and Decide for the compute+move phase of each round;
// both see the same start-of-round snapshot of co-located cards, and Decide
// additionally sees the messages composed this round.
type Agent interface {
	// ID returns the robot's unique label. It must be constant.
	ID() int
	// Card returns the robot's current public state.
	Card() Card
	// Compose returns the messages to deliver this round. Destinations
	// must be co-located (or Broadcast); others are dropped.
	Compose(env *Env) []Message
	// Decide returns the robot's action for this round.
	Decide(env *Env) Action
}

// Resettable is the optional pooling protocol of an Agent: Reset(id)
// returns the agent to the exact state its constructor would produce for a
// robot with the given ID, reusing its internal storage where possible.
// Pooled sweep layers (gather.Arena) call it to re-run a long-lived agent
// set on a fresh instance instead of constructing k new agents per job;
// agents that do not implement it are simply rebuilt. Implementations must
// make a pooled run bit-identical to a fresh one — anything less breaks
// the sweep determinism contract.
type Resettable interface {
	Agent
	// Reset re-initializes the agent for a new run as robot id.
	Reset(id int)
}

// Idler is the optional quiet-round protocol of an Agent. World.Run uses
// it to jump the round clock over rounds in which nothing can happen:
// when every live robot promises to stay idle under the view it has,
// stepping those rounds would only advance each agent's own counters, so
// Run advances them with Skip instead (DESIGN.md, "Quiet-round jumps").
type Idler interface {
	Agent
	// Idle returns how many rounds, starting with this one, the agent
	// would compose nothing, return only Stay or Follow, and change
	// nothing but round counters its card does not show, for as long as
	// every round shows it env: this round's view (degree, arrival port
	// and co-located cards) with an empty inbox. 0 means this round must
	// be stepped. The engine asks only live (not terminated, not crashed)
	// robots; env is valid only during the call, and Idle must not
	// change the agent.
	Idle(env *Env) int
	// Skip advances exactly those counters by r rounds, leaving the
	// agent in the state r stepped rounds under the same view would
	// leave it in; r is at most the last Idle value.
	Skip(r int)
}

// Base provides common Agent plumbing: ID and card storage plus a no-op
// Compose. Algorithm agents embed it and override what they need.
type Base struct {
	Self Card
}

// NewBase returns a Base with the given ID, no leader, and no group.
func NewBase(id int) Base {
	return Base{Self: Card{ID: id, GroupID: -1, Leader: -1}}
}

// ID implements Agent.
func (b *Base) ID() int { return b.Self.ID }

// Card implements Agent.
func (b *Base) Card() Card { return b.Self }

// Compose implements Agent with no messages; override as needed.
func (b *Base) Compose(*Env) []Message { return nil }

// DelayedAgent wraps an agent so it sleeps until its wake round: before
// waking it neither communicates nor moves, though it remains physically
// present (co-located robots see its card). This models the startup delay
// τ of Dessmark et al. [17] that the paper's simultaneous-start assumption
// removes; the delay ablation experiment quantifies what breaks without
// it. The inner agent never observes a round before its wake round, so its
// local clock starts at zero like every algorithm here expects — but the
// rest of the system is already Wake rounds ahead.
type DelayedAgent struct {
	Inner Agent
	Wake  int
}

// Delayed wraps inner so it starts executing at round wake.
func Delayed(inner Agent, wake int) *DelayedAgent {
	return &DelayedAgent{Inner: inner, Wake: wake}
}

// ID implements Agent.
func (d *DelayedAgent) ID() int { return d.Inner.ID() }

// Card implements Agent.
func (d *DelayedAgent) Card() Card { return d.Inner.Card() }

// Compose implements Agent, staying silent until the wake round.
func (d *DelayedAgent) Compose(env *Env) []Message {
	if env.Round < d.Wake {
		return nil
	}
	return d.Inner.Compose(d.shifted(env))
}

// Decide implements Agent, holding position until the wake round.
func (d *DelayedAgent) Decide(env *Env) Action {
	if env.Round < d.Wake {
		return StayAction()
	}
	return d.Inner.Decide(d.shifted(env))
}

// shifted rebases the round clock so the inner agent sees time from its
// own wake-up, matching the "time is measured from the moment the final
// robot wakes up" convention of the delayed-start literature.
func (d *DelayedAgent) shifted(env *Env) *Env {
	if d.Wake == 0 {
		return env
	}
	cp := *env
	cp.Round = env.Round - d.Wake
	return &cp
}
