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

func (s *sleeper) Idle() int {
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
// Run stepping; so do robots that are not alone, not Idlers, or not idle.
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
		{"co-located", func(t *testing.T) *World {
			w, _ := sleeperWorld(t, []int{60, 80}, []int{3, 3})
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
