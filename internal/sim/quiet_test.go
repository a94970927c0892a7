package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// sleeper is the synthetic Idler of the quiet-round contract: it stays
// put until its local clock reaches wake, then terminates, and its
// promise is honest (the rounds left before that). A lazy sleeper
// behaves the same but promises nothing. Every sleeper checks that the
// engine never asks a terminated or crashed robot.
type sleeper struct {
	Base
	clock int
	wake  int    //repolint:keep the schedule belongs to the test, not the robot's run state
	lazy  bool   //repolint:keep test-side switch, fixed per robot
	w     *World //repolint:keep test-side back-reference for the asked-while-dead check
	idx   int    //repolint:keep test-side back-reference for the asked-while-dead check
	dead  []string
}

func (s *sleeper) Decide(*Env) Action {
	if s.clock >= s.wake {
		return TerminateAction(true)
	}
	s.clock++
	return StayAction()
}

func (s *sleeper) Idle(*Env) int {
	s.checkLive("Idle")
	if s.lazy {
		return 0
	}
	return s.wake - s.clock
}

func (s *sleeper) Skip(r int) {
	s.checkLive("Skip")
	s.clock += r
}

func (s *sleeper) Reset(id int) {
	s.Base = NewBase(id)
	s.clock = 0
	s.dead = nil
}

func (s *sleeper) checkLive(call string) {
	if s.w.done[s.idx] || s.w.crashed[s.idx] {
		s.dead = append(s.dead, fmt.Sprintf("%s at round %d", call, s.w.round))
	}
}

// sleeperWorld builds a world of sleepers with the given wake rounds, at
// the given nodes of a 12-cycle. lazy[i] makes robot i promise nothing.
func sleeperWorld(t *testing.T, wakes, nodes []int, lazy ...bool) (*World, []*sleeper) {
	t.Helper()
	agents := make([]Agent, len(wakes))
	ss := make([]*sleeper, len(wakes))
	for i, wake := range wakes {
		ss[i] = &sleeper{Base: NewBase(i + 1), wake: wake, idx: i}
		if i < len(lazy) {
			ss[i].lazy = lazy[i]
		}
		agents[i] = ss[i]
	}
	w, err := NewWorld(graph.Cycle(12), agents, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		s.w = w
	}
	return w, ss
}

// forceSteps installs a no-op tracer, which makes Run step every round:
// the reference for every jump.
func forceSteps(w *World) { w.SetTracer(TracerFunc(func(*World) {})) }

// sameRun compares two results on every field but Stepped.
func sameRun(a, b Result) bool {
	a.Stepped, b.Stepped = 0, 0
	return reflect.DeepEqual(a, b)
}

// checkJumpMatchesStepping runs the world built by mk twice, once by Run
// and once with every round forced, and requires equal results and
// equal sleeper clocks. It returns the jumping run's result.
func checkJumpMatchesStepping(t *testing.T, maxRounds int, mk func() (*World, []*sleeper)) Result {
	t.Helper()
	w, ss := mk()
	ref, rs := mk()
	forceSteps(ref)
	got, want := w.Run(maxRounds), ref.Run(maxRounds)
	if !sameRun(got, want) {
		t.Fatalf("jumped run diverged from stepping:\n got  %+v\n want %+v", got, want)
	}
	if want.Stepped != want.Rounds {
		t.Fatalf("forced run jumped: %+v", want)
	}
	for i := range ss {
		if ss[i].clock != rs[i].clock {
			t.Errorf("robot %d: clock %d after jumping, %d after stepping", i+1, ss[i].clock, rs[i].clock)
		}
		if len(ss[i].dead) > 0 {
			t.Errorf("robot %d asked while terminated or crashed: %v", i+1, ss[i].dead)
		}
	}
	return got
}

// The jump lands exactly on maxRounds, and a later Run resumes from
// there to the same end as stepping.
func TestQuietJumpLandsOnMaxRounds(t *testing.T) {
	w, ss := sleeperWorld(t, []int{1000, 700}, []int{0, 6})
	res := w.Run(100)
	if res.Rounds != 100 || res.Stepped != 0 || ss[0].clock != 100 || ss[1].clock != 100 {
		t.Fatalf("Run(100) = %+v with clocks %d, %d; want 100 rounds, 0 stepped, clocks 100", res, ss[0].clock, ss[1].clock)
	}
	res = w.Run(5000)
	// Robot 2 terminates in round 700, robot 1 in round 1000: two steps.
	if res.Rounds != 1001 || res.Stepped != 2 || !res.AllTerminated {
		t.Fatalf("Run(5000) = %+v, want 1001 rounds of which 2 stepped", res)
	}
	checkJumpMatchesStepping(t, 5000, func() (*World, []*sleeper) {
		return sleeperWorld(t, []int{1000, 700}, []int{0, 6})
	})
}

// Crashes and recoveries cut the window: a fault due in the first round
// of a window forces a step, and one inside it ends the jump there, so
// every fault fires in its own round.
func TestQuietJumpStopsAtFaults(t *testing.T) {
	for _, c := range []struct {
		name           string
		crash, recover int // robot 1's fault rounds, -1 = none
		stepped        int
	}{
		// Stepped: the fault rounds and each robot's terminating round
		// (robot 1 restarts its clock on recovery, so it ends at 50+90).
		{"crash-first-round", 0, -1, 2},
		{"crash-inside", 37, -1, 2},
		{"recover-inside", 10, 50, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := checkJumpMatchesStepping(t, 400, func() (*World, []*sleeper) {
				w, ss := sleeperWorld(t, []int{90, 200}, []int{0, 6})
				if err := w.CrashAt(1, c.crash); err != nil {
					t.Fatal(err)
				}
				if c.recover >= 0 {
					if err := w.RecoverAt(1, c.recover); err != nil {
						t.Fatal(err)
					}
				}
				return w, ss
			})
			if res.Stepped != c.stepped {
				t.Errorf("stepped %d of %d rounds, want %d: %+v", res.Stepped, res.Rounds, c.stepped, res)
			}
		})
	}
}

// Anything that must see every round, or that draws per round, keeps
// Run stepping; so do robots that are not Idlers or not idle.
func TestQuietJumpPreconditions(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(t *testing.T) *World
	}{
		{"tracer", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6})
			w.SetTracer(&OccupancyTracer{})
			return w
		}},
		{"semi-sync", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6})
			w.SetScheduler(NewSemiSync(0.5, 5))
			return w
		}},
		{"adversarial", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6})
			w.SetScheduler(NewAdversarial(2))
			return w
		}},
		{"overlay", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6})
			if err := w.SetOverlay(graph.NewOverlay(w.Graph(), 0.2, 3)); err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"byzantine", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6})
			if err := w.SetByzantine(2, 7); err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"not-an-idler", func(t *testing.T) *World {
			w, err := NewWorld(graph.Cycle(12), []Agent{
				&sleeper{Base: NewBase(1), wake: 60},
				newScripted(2),
			}, []int{0, 6})
			if err != nil {
				t.Fatal(err)
			}
			w.agents[0].(*sleeper).w = w
			return w
		}},
		{"idle-zero", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{0, 6}, false, true)
			return w
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := c.setup(t).Run(100)
			if res.Stepped != res.Rounds || res.Rounds == 0 {
				t.Errorf("Run jumped: %+v", res)
			}
		})
	}
}

// A terminated or crashed robot is never asked, and so never blocks the
// jump, whether or not it is an Idler; the scripted robots here are not.
func TestQuietJumpIgnoresDeadRobots(t *testing.T) {
	w, err := NewWorld(graph.Cycle(12), []Agent{
		&sleeper{Base: NewBase(1), wake: 300},
		newScripted(2, TerminateAction(true)),
		newScripted(3),
		&sleeper{Base: NewBase(4), wake: 500, idx: 3},
	}, []int{0, 3, 6, 9})
	if err != nil {
		t.Fatal(err)
	}
	s1, s4 := w.agents[0].(*sleeper), w.agents[3].(*sleeper)
	s1.w, s4.w = w, w
	if err := w.CrashAt(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.CrashAt(4, 100); err != nil {
		t.Fatal(err)
	}
	res := w.Run(1000)
	// Round 0 (robot 2 terminates), round 1 (robot 3 crashes), round 100
	// (robot 4 crashes) and round 300 (robot 1 terminates) are stepped.
	if res.Rounds != 301 || res.Stepped != 4 || !res.AllTerminated || res.Crashed != 2 {
		t.Errorf("Run = %+v, want 301 rounds, 4 stepped, 2 crashed", res)
	}
	for _, s := range []*sleeper{s1, s4} {
		if len(s.dead) > 0 {
			t.Errorf("robot %d asked while terminated or crashed: %v", s.ID(), s.dead)
		}
	}
}

// Step never jumps, and Reset zeroes the stepped-round counter.
func TestSteppedCounter(t *testing.T) {
	w, ss := sleeperWorld(t, []int{50, 80}, []int{0, 6})
	for i := 0; i < 10; i++ {
		w.Step()
	}
	if res := w.Summary(); res.Rounds != 10 || res.Stepped != 10 {
		t.Fatalf("after 10 Steps: %+v", res)
	}
	agents := []Agent{ss[0], ss[1]}
	for _, s := range ss {
		s.Reset(s.ID())
	}
	if err := w.Reset(agents, []int{0, 6}); err != nil {
		t.Fatal(err)
	}
	if res := w.Summary(); res.Rounds != 0 || res.Stepped != 0 {
		t.Fatalf("after Reset: %+v", res)
	}
	if res := w.Run(1000); res.Rounds != 81 || res.Stepped != 2 {
		t.Fatalf("Run after Reset = %+v, want 81 rounds, 2 stepped", res)
	}
}

// Co-located robots jump too: the promise is made against the round's
// view, cards included, and two sleepers on one node keep theirs.
func TestQuietJumpCoLocatedSleepers(t *testing.T) {
	res := checkJumpMatchesStepping(t, 100, func() (*World, []*sleeper) {
		return sleeperWorld(t, []int{60, 80}, []int{3, 3})
	})
	if res.Rounds != 81 || res.Stepped != 2 {
		t.Errorf("Run = %+v, want 81 rounds of which 2 stepped (the two terminating rounds)", res)
	}
}

// peer is a view-dependent Idler. Every period rounds of its clock
// (period > 0) it broadcasts its clock; it terminates when its clock
// reaches wake, or in the first round whose view shows a terminated
// robot. Its promise is honest: it ends at its next speaking round or at
// wake, and is 0 under a view with a terminated robot. It logs what it
// hears and every view it is asked with, and counts the rounds in which
// its card was read other than once (the view built twice).
type peer struct {
	Base
	clock, wake, period int
	heard               []Message
	asked               []Env // views handed to Idle, Others copied
	seen                []Env // views handed to Compose, Others copied
	reads, rereads      int
}

func (p *peer) Card() Card {
	p.reads++
	return p.Self
}

func (p *peer) speaks() bool { return p.period > 0 && p.clock%p.period == 0 }

func (p *peer) Idle(env *Env) int {
	p.asked = append(p.asked, copyView(env))
	switch {
	case seesDone(env) || p.clock >= p.wake || p.speaks():
		return 0
	case p.period > 0:
		return min(p.wake-p.clock, p.period-p.clock%p.period)
	}
	return p.wake - p.clock
}

func (p *peer) Skip(r int) {
	p.clock += r
	p.reads = 0 // a jump builds one view, and its card is read once
}

func (p *peer) Compose(env *Env) []Message {
	p.seen = append(p.seen, copyView(env))
	if p.speaks() && p.clock < p.wake && !seesDone(env) {
		return []Message{{To: Broadcast, Kind: MsgCustom, A: p.clock}}
	}
	return nil
}

func (p *peer) Decide(env *Env) Action {
	if p.reads != 1 {
		p.rereads++
	}
	p.reads = 0
	p.heard = append(p.heard, env.Inbox...)
	if p.clock >= p.wake || seesDone(env) {
		return TerminateAction(true)
	}
	p.clock++
	return StayAction()
}

func seesDone(env *Env) bool {
	for _, c := range env.Others {
		if c.Done {
			return true
		}
	}
	return false
}

func copyView(env *Env) Env {
	cp := *env
	cp.Others = append([]Card(nil), env.Others...)
	return cp
}

// peerWorld builds, on a 12-cycle, two speaking peers and a silent
// watcher on node 3 and a lone silent peer on node 6. Robot 1 speaks
// every 7 rounds and wakes at 60; robot 2 speaks every 10 rounds; the
// watcher (robot 4) would sleep to 1000 but ends in the round after it
// sees robot 1 terminated, as robot 2 does; robot 3 wakes at 45.
func peerWorld(t *testing.T) (*World, []*peer) {
	t.Helper()
	ps := []*peer{
		{Base: NewBase(1), wake: 60, period: 7},
		{Base: NewBase(2), wake: 1000, period: 10},
		{Base: NewBase(3), wake: 45},
		{Base: NewBase(4), wake: 1000},
	}
	w, err := NewWorld(graph.Cycle(12), []Agent{ps[0], ps[1], ps[2], ps[3]}, []int{3, 3, 6, 3})
	if err != nil {
		t.Fatal(err)
	}
	return w, ps
}

// A co-located group that speaks from time to time: Run jumps the
// silent stretches between speaking rounds, and a view-dependent promise
// (the watcher's) is cut where a neighbour's ends. A round whose check
// fails runs on to communicate, decide and move on the view the check
// built, reading each card once, and ends where Step ends: the same
// result, the same messages heard, the same clocks. Every view handed to
// Idle is the view stepping shows in that round.
func TestQuietJumpCoLocatedPeers(t *testing.T) {
	w, ps := peerWorld(t)
	ref, rs := peerWorld(t)
	forceSteps(ref)
	got, want := w.Run(1000), ref.Run(1000)
	if !sameRun(got, want) {
		t.Fatalf("jumped run diverged from stepping:\n got  %+v\n want %+v", got, want)
	}
	// Stepped: the 14 rounds in which robot 1 (0, 7, ..., 56) or robot 2
	// (0, 10, ..., 50) speaks, robot 3's end at 45, robot 1's at 60, and
	// round 61, in which robots 2 and 4 see it terminated.
	if got.Rounds != 62 || got.Stepped != 17 || !got.AllTerminated {
		t.Errorf("Run = %+v, want 62 rounds of which 17 stepped", got)
	}
	views := map[[2]int]Env{} // (robot, round) -> the view stepping showed
	for i, p := range rs {
		for _, v := range p.seen {
			views[[2]int{i, v.Round}] = v
		}
	}
	for i, p := range ps {
		if p.clock != rs[i].clock || !reflect.DeepEqual(p.heard, rs[i].heard) {
			t.Errorf("robot %d: clock %d, heard %v after jumping; clock %d, heard %v after stepping",
				p.ID(), p.clock, p.heard, rs[i].clock, rs[i].heard)
		}
		if p.rereads != 0 || rs[i].rereads != 0 {
			t.Errorf("robot %d: card read other than once in %d jumped-run and %d stepped-run rounds", p.ID(), p.rereads, rs[i].rereads)
		}
		for _, v := range p.asked {
			if want, ok := views[[2]int{i, v.Round}]; !ok || !reflect.DeepEqual(v, want) {
				t.Errorf("robot %d asked with %+v in round %d; stepping showed %+v", p.ID(), v, v.Round, want)
			}
		}
	}
	if d := ps[3].clock; d != 61 {
		t.Errorf("watcher ended with clock %d, want 61: its window was not cut at robot 1's end", d)
	}
}

// A pooled world that jumps and steps a co-located group allocates only
// the result's FinalPositions copy: the view, the promises and the jump
// reuse the engine's scratch.
func TestQuietJumpZeroAllocs(t *testing.T) {
	w, ss := sleeperWorld(t, []int{60, 80, 90}, []int{3, 3, 7})
	agents := []Agent{ss[0], ss[1], ss[2]}
	run := func() {
		for _, s := range ss {
			s.Reset(s.ID())
		}
		if err := w.Reset(agents, []int{3, 3, 7}); err != nil {
			t.Fatal(err)
		}
		if res := w.Run(1000); res.Rounds != 91 || res.Stepped != 3 {
			t.Fatalf("Run = %+v, want 91 rounds of which 3 stepped", res)
		}
	}
	run() // warm the scratch and the Idler assertions
	if allocs := testing.AllocsPerRun(50, run); allocs != 1 {
		t.Errorf("jumping run allocates %.1f times per run, want 1 (Result.FinalPositions)", allocs)
	}
}
