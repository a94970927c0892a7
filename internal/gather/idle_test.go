package gather

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/sim"
)

// The promise table: each case hands an Idler a handcrafted view and
// holds the promise against the agent's own Compose and Decide on that
// same view. A positive promise must be kept: for every promised round
// (up to promiseCheckRounds) a stepped copy composes nothing, returns
// Stay or Follow and keeps its card, and it ends equal to a copy that
// skipped as many rounds. A 0 promise must be needed: stepping one round
// under the view does something a skip would not. Idle itself changes
// nothing.

// promiseCheckRounds bounds how many rounds of a promise are stepped.
const promiseCheckRounds = 400

type promiseCase struct {
	name string
	mk   func() sim.Idler // a fresh agent in the state under test
	env  sim.Env          // the round's view; the inbox stays empty
	want int
}

// stepView runs one round of a under env (round offset r) and reports
// whether the round was idle: no message, Stay or Follow, same card.
func stepView(a sim.Idler, env sim.Env, r int) bool {
	env.Round += r
	env.Others = append([]sim.Card(nil), env.Others...)
	card := a.Card()
	msgs := a.Compose(&env)
	act := a.Decide(&env)
	return len(msgs) == 0 && (act.Kind == sim.Stay || act.Kind == sim.Follow) && a.Card() == card
}

func checkPromise(t *testing.T, c promiseCase) {
	t.Helper()
	a, fresh := c.mk(), c.mk()
	env := c.env
	got := a.Idle(&env)
	if !reflect.DeepEqual(a, fresh) {
		t.Errorf("%s: Idle changed the agent", c.name)
	}
	if got != c.want {
		t.Errorf("%s: Idle = %d, want %d", c.name, got, c.want)
	}
	stepped, skipped := c.mk(), c.mk()
	if got == 0 {
		skipped.Skip(1)
		if stepView(stepped, c.env, 0) && reflect.DeepEqual(stepped, skipped) {
			t.Errorf("%s: promised nothing, but a round under this view only advances the clock", c.name)
		}
		return
	}
	n := min(got, promiseCheckRounds)
	for r := 0; r < n; r++ {
		if !stepView(stepped, c.env, r) {
			t.Errorf("%s: promised %d rounds, but round %d of them under this view is not idle", c.name, got, r)
			return
		}
	}
	skipped.Skip(n)
	if !reflect.DeepEqual(stepped, skipped) {
		t.Errorf("%s: %d stepped rounds under this view leave the agent unlike Skip(%d):\n stepped %+v\n skipped %+v", c.name, n, n, stepped, skipped)
	}
}

// Cards of co-located robots in the Undispersed-Gathering states.
func finderCard(id int) sim.Card {
	return sim.Card{ID: id, State: StateFinder, GroupID: id, Leader: -1}
}
func helperCard(id, g int) sim.Card {
	return sim.Card{ID: id, State: StateHelper, GroupID: g, Leader: -1}
}
func waiterCard(id int) sim.Card {
	return sim.Card{ID: id, State: StateWaiter, GroupID: -1, Leader: -1}
}

// ugIn returns a standalone Undispersed-Gathering robot on a 4-node graph
// that has read its round-0 view and now sits at round r in the given
// state and group; set adjusts the controller further.
func ugIn(id, r, state, groupid int, set func(*UG)) func() sim.Idler {
	return func() sim.Idler {
		a := NewUGAgent(4, id)
		u := a.U
		u.inited, u.r, u.state, u.groupid = true, r, state, groupid
		if set != nil {
			set(u)
		}
		u.Sync(&a.Self)
		return a
	}
}

// mappedFinder returns the finder (robot 1) of a two-robot
// Undispersed-Gathering run on a 2-node path, both robots starting on
// node 0, stepped to round r; its map is done well before R₁(2) = 42.
func mappedFinder(t *testing.T, r int) func() sim.Idler {
	return func() sim.Idler {
		a := []*UGAgent{NewUGAgent(2, 1), NewUGAgent(2, 2)}
		w, err := sim.NewWorld(graph.Path(2), []sim.Agent{a[0], a[1]}, []int{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		for w.Round() < r {
			w.Step()
		}
		if !a[0].U.builder.Done() {
			t.Fatalf("finder's map not done by round %d", r)
		}
		return a[0]
	}
}

func TestUGPromises(t *testing.T) {
	r1, total := R1(4), R(4)
	p2 := r1 + 2 // a Phase 2 round with the tour planned
	toured := func(u *UG) { u.tour, u.tourIdx = []int{0, 0}, 2 }
	alone := sim.Env{Degree: 2, ArrivalPort: -1}
	with := func(cards ...sim.Card) sim.Env { return sim.Env{Degree: 2, ArrivalPort: -1, Others: cards} }
	for _, c := range []promiseCase{
		{"before init", func() sim.Idler { return NewUGAgent(4, 1) }, with(helperCard(2, 1)), 0},
		{"phase 1 finder mapping", ugIn(1, 3, StateFinder, 1, func(u *UG) { u.builder = mapping.NewBuilder(4, 2) }), with(helperCard(2, 1)), 0},
		{"phase 1 finder mapped", mappedFinder(t, 30), with(helperCard(2, 1)), R1(2) - 30},
		{"phase 1 waiter alone", ugIn(9, 10, StateWaiter, -1, nil), alone, total - 10},
		{"phase 1 waiter by a finder", ugIn(9, 10, StateWaiter, -1, nil), with(finderCard(3)), r1 - 10},
		{"phase 1 token behind its finder", ugIn(7, 10, StateHelper, 3, func(u *UG) {
			u.isToken, u.token = true, mapping.Token{Owner: 3, Following: 3}
		}), with(finderCard(3)), total - 10},
		{"phase 1 helper by a smaller finder", ugIn(7, 10, StateHelper, 5, nil), with(finderCard(3)), r1 - 10},
		{"finder at R1", mappedFinder(t, R1(2)), with(helperCard(2, 1)), 0},
		{"finder touring", ugIn(3, p2, StateFinder, 3, func(u *UG) { u.tour = []int{0, 0} }), alone, 0},
		{"finder home alone", ugIn(3, p2, StateFinder, 3, toured), alone, total - p2},
		{"finder home by larger groups", ugIn(3, p2, StateFinder, 3, toured), with(helperCard(1, 5), waiterCard(2), finderCard(7)), total - p2},
		{"finder by a smaller helper", ugIn(5, p2, StateFinder, 5, toured), with(helperCard(9, 2)), 0},
		{"finder by a smaller finder", ugIn(5, p2, StateFinder, 5, toured), with(finderCard(2)), 0},
		{"helper by a smaller finder", ugIn(7, p2, StateHelper, 3, nil), with(finderCard(2)), 0},
		{"helper behind its finder", ugIn(7, p2, StateHelper, 3, func(u *UG) { u.leader = 3 }), with(finderCard(3), helperCard(2, 2)), total - p2},
		{"waiter by a finder", ugIn(9, p2, StateWaiter, -1, nil), with(finderCard(12)), 0},
		{"waiter by helpers", ugIn(9, p2, StateWaiter, -1, nil), with(helperCard(1, 1)), total - p2},
		{"at R", ugIn(9, total, StateWaiter, -1, nil), alone, 0},
	} {
		checkPromise(t, c)
	}
}

func TestHopMeetPromises(t *testing.T) {
	cfg := Config{KnownMaxDegree: 2}
	hop := func(r int, frozen bool) func() sim.Idler {
		return func() sim.Idler {
			a := NewHopMeetAgent(cfg, 1, 4, 2) // bits 0, 1
			a.H.r, a.H.frozen = r, frozen
			return a
		}
	}
	h := NewHopMeet(cfg, 1, 4, 2)
	cyc, total := h.cycleLen, h.total
	alone := sim.Env{Degree: 2, ArrivalPort: -1}
	met := sim.Env{Degree: 2, ArrivalPort: -1, Others: []sim.Card{{ID: 4, GroupID: -1, Leader: -1}}}
	for _, c := range []promiseCase{
		{"unfrozen and co-located", hop(0, false), met, 0},
		{"frozen and co-located", hop(3, true), met, total - 3 - 1},
		{"alone in a 0-bit cycle", hop(3, false), alone, cyc - 3},
		{"alone at a 1-bit cycle's start", hop(cyc, false), alone, 0},
		{"last round", hop(total-1, true), met, 0},
	} {
		checkPromise(t, c)
	}
}

func TestUXSGPromises(t *testing.T) {
	cfg := Config{UXSLen: 16}
	uxsg := func(r, leader int) func() sim.Idler {
		return func() sim.Idler {
			a := NewUXSGAgent(cfg, 4, 10) // bits 0, 1, 0, 1
			a.G.r, a.G.leader, a.Self.Leader = r, leader, leader
			return a
		}
	}
	with := func(ids ...int) sim.Env {
		env := sim.Env{Degree: 2, ArrivalPort: -1}
		for _, id := range ids {
			env.Others = append(env.Others, sim.Card{ID: id, GroupID: -1, Leader: -1})
		}
		return env
	}
	doneBigger := with(3)
	doneBigger.Others = append(doneBigger.Others, sim.Card{ID: 12, GroupID: -1, Leader: -1, Done: true, Gathered: true})
	waitEnd := (4 + 1) * 2 * 16 // (bits + 1) phases of 2T
	for _, c := range []promiseCase{
		{"follower by a robot larger than its leader", uxsg(3, 12), with(12, 15), 0},
		{"follower behind its leader", uxsg(3, 12), with(3, 12), math.MaxInt},
		{"leader by a larger robot", uxsg(3, -1), with(12), 0},
		{"by a larger terminated robot", uxsg(3, -1), doneBigger, 0},
		{"leader waiting first", uxsg(3, -1), with(3), 16 - 3},
		{"leader exploring second", uxsg(16, -1), with(3), 0},
		{"leader in its terminal wait", uxsg(waitEnd-27, -1), with(3), 27},
		{"leader at its wait's end", uxsg(waitEnd, -1), with(3), 0},
	} {
		checkPromise(t, c)
	}
}

func TestFasterPromises(t *testing.T) {
	cfg := Config{UXSLen: 16, KnownMaxDegree: 2}
	total := R(4)
	faster := func(set func(a *FasterAgent)) func() sim.Idler {
		return func() sim.Idler {
			a := NewFasterAgent(cfg, 4, 9)
			set(a)
			return a
		}
	}
	ugAt := func(r int) func(a *FasterAgent) {
		return func(a *FasterAgent) {
			a.lr, a.ug.r, a.ug.inited, a.ug.groupid = r, r, true, -1
			a.ug.Sync(&a.Self)
		}
	}
	alone := sim.Env{Degree: 2, ArrivalPort: -1}
	met := sim.Env{Degree: 2, ArrivalPort: -1, Others: []sim.Card{{ID: 12, GroupID: -1, Leader: -1}}}
	for _, c := range []promiseCase{
		{"waiting in a UG segment", faster(ugAt(10)), alone, total - 10},
		{"at a UG segment's boundary", faster(ugAt(total)), alone, 0},
		{"unfrozen and co-located in a hop segment", faster(func(a *FasterAgent) { a.enter(1) }), met, 0},
		{"following in the UXS stage", faster(func(a *FasterAgent) {
			a.enter(len(a.segs) - 1)
			a.uxsg.leader = 12
		}), met, math.MaxInt},
	} {
		checkPromise(t, c)
	}
}
