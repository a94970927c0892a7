// Package fault is the seeded fault-injection layer: a small spec grammar
// (the -faults flag and the sweep service's "faults" field), a
// deterministic materializer turning a spec into a per-robot fault
// schedule, and an applier installing that schedule on a world.
//
// The grammar generalizes the crash-only adversary of the paper into
// three fault classes:
//
//	none            fault-free (the default)
//	crash:F[@R]     F robots fail-stop permanently (at round R, or seed-drawn)
//	recover:F,D[@R] F robots crash, then recover D rounds later with amnesia
//	byz:F           F Byzantine robots corrupt their cards and messages
//
// A Plan is a pure function of (spec, robot count, horizon, seed): victim
// selection is a partial Fisher–Yates shuffle over the robot indices and
// every round or stream-seed draw comes from one splitmix64 counter
// stream, so the same inputs always fault the same robots at the same
// rounds, which is what keeps fault sweeps bit-identical across
// -parallel.
//
// At most k-1 robots are faulted: gathering is vacuous with no correct
// robot left, and capping the selection keeps every spec meaningful on
// every sweep shape instead of erroring on small k.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind enumerates the fault classes of the grammar.
type Kind int

const (
	// None is the fault-free default.
	None Kind = iota
	// Crash fail-stops the selected robots permanently.
	Crash
	// Recover crashes the selected robots, then revives them with
	// constructor-state amnesia a fixed delay later.
	Recover
	// Byzantine makes the selected robots lie: their exposed cards and
	// sent messages are corrupted from per-robot splitmix64 streams.
	Byzantine
)

// String returns the grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Byzantine:
		return "byz"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// Spec is a parsed fault spec — the canonical, validated form of the
// grammar above.
type Spec struct {
	Kind  Kind
	Count int // F: robots to fault (capped at k-1 when materialized)
	Delay int // Recover only: rounds between crash and recovery, >= 1
	Round int // fixed crash round, or -1 to draw it from the horizon
}

// Grammar returns the one-line-per-spec catalog of the fault grammar —
// the single source -list sections and parse errors quote, so the
// enumeration a user sees is always the one Parse accepts.
func Grammar() []string {
	return []string{
		"none            fault-free (the default)",
		"crash:F[@R]     F robots fail-stop permanently (at round R, or seed-drawn)",
		"recover:F,D[@R] F robots crash, then recover D rounds later with amnesia",
		"byz:F           F Byzantine robots corrupt their cards and messages",
	}
}

// grammarForms is the compact enumeration quoted by every parse error.
const grammarForms = "none, crash:F[@R], recover:F,D[@R] or byz:F"

// Parse builds a Spec from its flag form. Every error enumerates the
// valid forms, so a bad spec teaches the grammar instead of only naming
// the bad token.
func Parse(spec string) (Spec, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	bad := func(format string, args ...any) (Spec, error) {
		return Spec{}, fmt.Errorf("fault: "+format+" (want "+grammarForms+")", args...)
	}
	switch name {
	case "", "none":
		if hasArg {
			return bad("spec %q takes no argument", spec)
		}
		return Spec{Kind: None, Round: -1}, nil
	case "crash", "recover", "byz":
	default:
		return bad("unknown fault spec %q", spec)
	}
	if !hasArg || arg == "" {
		return bad("spec %q needs a robot count", spec)
	}
	s := Spec{Round: -1}
	if at := strings.LastIndexByte(arg, '@'); at >= 0 {
		if name == "byz" {
			return bad("byz takes no @R round")
		}
		r, err := strconv.Atoi(arg[at+1:])
		if err != nil || r < 0 {
			return bad("bad crash round %q in %q", arg[at+1:], spec)
		}
		s.Round = r
		arg = arg[:at]
	}
	if name == "recover" {
		cnt, delay, ok := strings.Cut(arg, ",")
		if !ok {
			return bad("recover needs a crash-to-recovery delay, as in recover:1,10")
		}
		d, err := strconv.Atoi(delay)
		if err != nil || d < 1 {
			return bad("bad recovery delay %q in %q (want >= 1)", delay, spec)
		}
		s.Delay = d
		arg = cnt
	}
	f, err := strconv.Atoi(arg)
	if err != nil || f < 1 {
		return bad("bad robot count %q in %q (want >= 1)", arg, spec)
	}
	s.Count = f
	switch name {
	case "crash":
		s.Kind = Crash
	case "recover":
		s.Kind = Recover
	case "byz":
		s.Kind = Byzantine
	}
	return s, nil
}

// String returns the canonical flag form of the spec: Parse(s.String())
// round-trips, which is what the sweep service's canonicalization
// idempotence rests on.
func (s Spec) String() string {
	switch s.Kind {
	case None:
		return "none"
	case Crash:
		if s.Round >= 0 {
			return fmt.Sprintf("crash:%d@%d", s.Count, s.Round)
		}
		return fmt.Sprintf("crash:%d", s.Count)
	case Recover:
		if s.Round >= 0 {
			return fmt.Sprintf("recover:%d,%d@%d", s.Count, s.Delay, s.Round)
		}
		return fmt.Sprintf("recover:%d,%d", s.Count, s.Delay)
	case Byzantine:
		return fmt.Sprintf("byz:%d", s.Count)
	}
	return fmt.Sprintf("fault.Spec{Kind:%d}", int(s.Kind))
}

// splitmix64 is the SplitMix64 finalizer — the same scrambler the runner's
// JobSeed and the Byzantine corruption streams use.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Plan is one run's materialized fault schedule: parallel arrays over the
// selected victims, robot indices ascending.
type Plan struct {
	Spec    Spec
	Robots  []int    // victim robot indices (into the run's agent order)
	CrashAt []int    // Crash/Recover: per-victim crash round
	Revive  []int    // Recover: per-victim recovery round (CrashAt + Delay)
	Seeds   []uint64 // Byzantine: per-victim corruption stream seed
}

// Plan materializes the spec for a run of k robots capped at horizon
// rounds, deterministically from seed. Victims are min(Count, k-1)
// distinct robots; seed-drawn crash rounds land in [0, horizon), so every
// scheduled crash actually fires within the run.
func (s Spec) Plan(k, horizon int, seed uint64) Plan {
	p := Plan{Spec: s}
	if s.Kind == None || k <= 1 {
		return p
	}
	n := s.Count
	if n > k-1 {
		n = k - 1
	}
	// Counter-based draw stream: draw i is a pure function of (seed, i).
	ctr := uint64(0)
	draw := func() uint64 {
		ctr++
		return splitmix64(seed ^ ctr*0x9E3779B97F4A7C15)
	}
	// Partial Fisher–Yates over [0, k): the first n slots become the
	// victim set; sorted afterwards so appliers and reports see robot
	// order, not selection order.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + int(draw()%uint64(k-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	p.Robots = idx[:n:n]
	sortInts(p.Robots)
	switch s.Kind {
	case Crash, Recover:
		p.CrashAt = make([]int, n)
		for i := range p.CrashAt {
			if s.Round >= 0 {
				p.CrashAt[i] = s.Round
			} else if horizon > 1 {
				p.CrashAt[i] = int(draw() % uint64(horizon))
			}
		}
		if s.Kind == Recover {
			p.Revive = make([]int, n)
			for i := range p.Revive {
				p.Revive[i] = p.CrashAt[i] + s.Delay
			}
		}
	case Byzantine:
		p.Seeds = make([]uint64, n)
		for i := range p.Seeds {
			p.Seeds[i] = draw()
		}
	}
	return p
}

// sortInts is insertion sort: victim sets are tiny and the fault package
// stays dependency-light.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Apply installs the plan on a world whose robots, in agent order, have
// the given IDs.
func Apply(w *sim.World, ids []int, p Plan) error {
	for vi, r := range p.Robots {
		id := ids[r]
		switch p.Spec.Kind {
		case Crash, Recover:
			if err := w.CrashAt(id, p.CrashAt[vi]); err != nil {
				return err
			}
			if p.Spec.Kind == Recover {
				if err := w.RecoverAt(id, p.Revive[vi]); err != nil {
					return err
				}
			}
		case Byzantine:
			if err := w.SetByzantine(id, p.Seeds[vi]); err != nil {
				return err
			}
		}
	}
	return nil
}
