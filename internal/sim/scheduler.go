package sim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Scheduler decides which robots are activated each round. A robot that is
// not activated is frozen for the round: it does not observe, compose,
// decide, or move — but it remains physically present, so co-located
// robots still see its card. Directed or broadcast messages addressed to a
// frozen robot are dropped (it is not listening).
//
// The paper proves its bounds under the fully-synchronous scheduler
// (FullSync, the default); SemiSync and Adversarial are the standard next
// activation models of the distributed-mobile-robots literature and exist
// to measure what the algorithms' guarantees cost outside the proven
// model.
//
// A Scheduler instance is owned by one run: implementations may carry
// per-run state (RNG streams, per-robot lag counters), so parallel sweeps
// must construct a fresh scheduler inside each job's Build, never share
// one across worlds.
type Scheduler interface {
	// Activate sets active[i] = true for every agent index the scheduler
	// activates this round. The engine hands active in with every entry
	// already false and ignores entries of crashed or terminated robots.
	Activate(v SchedView, active []bool)
	// String returns the scheduler's spec in ParseScheduler syntax.
	String() string
}

// SchedView is the read-only slice of one world a Scheduler consults when
// deciding activations; *World implements it.
//
// Groups enumerates the world's occupied nodes in ascending node order;
// Group returns one node and the agent indices of the robots on it in
// ascending robot-ID order (crashed robots excluded, terminated robots
// included — they stay visible). The members slice is read-only and only
// valid until the next Group call.
type SchedView interface {
	// Robots returns the number of robots (matching len(active)).
	Robots() int
	// RobotDone reports whether agent index i has terminated.
	RobotDone(i int) bool
	// MoveCount returns the edge-traversal count of agent index i.
	MoveCount(i int) int64
	// Groups returns the number of occupied nodes.
	Groups() int
	// Group returns the gi-th occupied node (ascending by node) and the
	// ID-sorted agent indices of the robots on it.
	Group(gi int) (node int, members []int)
}

// FullSync activates every robot every round: the paper's model, and
// bit-identical to the pre-scheduler engine.
type FullSync struct{}

// NewFullSync returns the fully-synchronous scheduler.
func NewFullSync() *FullSync { return &FullSync{} }

// Activate implements Scheduler.
func (*FullSync) Activate(_ SchedView, active []bool) {
	for i := range active {
		active[i] = true
	}
}

// String implements Scheduler.
func (*FullSync) String() string { return "full" }

// SemiSync is the randomized semi-synchronous scheduler: each round every
// robot is independently activated with probability P from a seeded
// deterministic stream, so the same seed always produces the same
// activation pattern. Every robot is activated infinitely often with
// probability 1, but co-located robots may be activated in different
// rounds — the desynchronization the paper's synchronous proofs rule out.
type SemiSync struct {
	P   float64
	rng *graph.RNG
}

// NewSemiSync returns a semi-synchronous scheduler with activation
// probability p (clamped to [0.05, 1] so runs always make progress).
func NewSemiSync(p float64, seed uint64) *SemiSync {
	if p < 0.05 {
		p = 0.05
	}
	if p > 1 {
		p = 1
	}
	return &SemiSync{P: p, rng: graph.NewRNG(seed)}
}

// Activate implements Scheduler. One coin is drawn per robot regardless of
// its crash/done state, so the stream consumed by round r never depends on
// run history and runs stay replayable.
func (s *SemiSync) Activate(_ SchedView, active []bool) {
	for i := range active {
		active[i] = s.rng.Float64() < s.P
	}
}

// String implements Scheduler.
func (s *SemiSync) String() string { return fmt.Sprintf("semi:%g", s.P) }

// Adversarial is a deterministic fair adversary that tries to delay
// gathering: every round it splits each co-located group by freezing
// every second member (by ID rank), and additionally holds back the
// lagging singleton — the lone robot with the fewest moves so far. To stay
// fair it never freezes a robot more than MaxLag rounds in a row.
type Adversarial struct {
	MaxLag    int
	frozenFor []int // consecutive rounds each robot has been frozen
}

// NewAdversarial returns the adversarial scheduler; maxLag <= 0 selects
// the default lag bound of 3 rounds.
func NewAdversarial(maxLag int) *Adversarial {
	if maxLag <= 0 {
		maxLag = 3
	}
	return &Adversarial{MaxLag: maxLag}
}

// Activate implements Scheduler. It reads the world purely through the
// SchedView group enumeration.
func (a *Adversarial) Activate(v SchedView, active []bool) {
	if a.frozenFor == nil {
		a.frozenFor = make([]int, len(active))
	}
	for i := range active {
		active[i] = true
	}
	// Split every co-located group: freeze the 2nd, 4th, ... member.
	// Terminated robots sit in the occupancy buckets (they stay visible)
	// but never act, so only the still-running members count — freezing
	// a done robot would waste the adversary's move.
	lagging, lagMoves := -1, int64(-1)
	for gi, ng := 0, v.Groups(); gi < ng; gi++ {
		_, b := v.Group(gi)
		running := 0
		for _, i := range b {
			if !v.RobotDone(i) {
				running++
			}
		}
		if running >= 2 {
			rank := 0
			for _, i := range b {
				if v.RobotDone(i) {
					continue
				}
				if rank%2 == 1 && a.frozenFor[i] < a.MaxLag {
					active[i] = false
				}
				rank++
			}
			continue
		}
		if running == 0 {
			continue
		}
		// Track the lone running robot with the fewest moves: the laggard
		// whose delay stretches the run the most.
		for _, i := range b {
			if v.RobotDone(i) {
				continue
			}
			if lagging < 0 || v.MoveCount(i) < lagMoves {
				lagging, lagMoves = i, v.MoveCount(i)
			}
			break
		}
	}
	if lagging >= 0 && a.frozenFor[lagging] < a.MaxLag {
		active[lagging] = false
	}
	for i, on := range active {
		if on {
			a.frozenFor[i] = 0
		} else {
			a.frozenFor[i]++
		}
	}
}

// String implements Scheduler.
func (a *Adversarial) String() string { return fmt.Sprintf("adv:%d", a.MaxLag) }

// SchedulerGrammar returns the one-line-per-spec catalog of the scheduler
// grammar — the single source -list sections and parse errors quote, so
// the enumeration a user sees is always the one ParseScheduler accepts.
func SchedulerGrammar() []string {
	return []string{
		"full          fully-synchronous (the default, the paper's model)",
		"semi:P        semi-synchronous with activation probability P (0.05 <= P <= 1)",
		"adv[:L]       adversarial with lag bound L (default bound when omitted)",
	}
}

// schedulerForms is the compact enumeration quoted by every parse error.
const schedulerForms = "full, semi:P or adv[:L]"

// ParseScheduler builds a scheduler from its flag spec:
//
//	full          fully-synchronous (the default, the paper's model)
//	semi:P        semi-synchronous with activation probability P
//	adv           adversarial with the default lag bound
//	adv:L         adversarial with lag bound L
//
// seed feeds the SemiSync stream and is ignored by the other schedulers.
// Every error enumerates the valid forms, so a bad spec teaches the
// grammar instead of only naming the bad token.
func ParseScheduler(spec string, seed uint64) (Scheduler, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", "full":
		return NewFullSync(), nil
	case "semi":
		p := 0.5
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			// Reject what NewSemiSync would silently clamp, so the spec a
			// user typed is always the probability the run actually uses.
			if err != nil || v < 0.05 || v > 1 {
				return nil, fmt.Errorf("sim: bad activation probability %q (want 0.05 <= p <= 1, as in %s; runs must make progress)", arg, schedulerForms)
			}
			p = v
		}
		return NewSemiSync(p, seed), nil
	case "adv":
		lag := 0
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("sim: bad adversarial lag %q (want >= 1, as in %s)", arg, schedulerForms)
			}
			lag = v
		}
		return NewAdversarial(lag), nil
	}
	return nil, fmt.Errorf("sim: unknown scheduler %q (want %s)", spec, schedulerForms)
}
