package gather

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

// envWith builds a minimal Env containing the given co-located cards.
func envWith(cards ...sim.Card) *sim.Env {
	return &sim.Env{Degree: 2, ArrivalPort: -1, Others: cards}
}

func TestUGInitRoles(t *testing.T) {
	// Finder: minimum ID among co-located robots.
	u := NewUG(5, 4)
	u.Compose(envWith(sim.Card{ID: 9}, sim.Card{ID: 7}))
	if u.State() != StateFinder {
		t.Errorf("min ID robot state = %d, want finder", u.State())
	}
	// Helper: co-located with a smaller ID.
	h := NewUG(5, 7)
	h.Compose(envWith(sim.Card{ID: 4}, sim.Card{ID: 9}))
	if h.State() != StateHelper {
		t.Errorf("state = %d, want helper", h.State())
	}
	// Waiter: alone.
	w := NewUG(5, 3)
	w.Compose(envWith())
	if w.State() != StateWaiter {
		t.Errorf("state = %d, want waiter", w.State())
	}
}

func TestUGTokenSelection(t *testing.T) {
	// The smallest non-finder ID acts as the token.
	tok := NewUG(5, 7)
	tok.Compose(envWith(sim.Card{ID: 4}, sim.Card{ID: 9})) // finder is 4
	if !tok.isToken {
		t.Error("ID 7 should be the token (smallest helper)")
	}
	spare := NewUG(5, 9)
	spare.Compose(envWith(sim.Card{ID: 4}, sim.Card{ID: 7}))
	if spare.isToken {
		t.Error("ID 9 should be a spare helper, not the token")
	}
}

func TestUGSyncPublishesFields(t *testing.T) {
	u := NewUG(5, 4)
	u.Compose(envWith(sim.Card{ID: 9}))
	var c sim.Card
	u.Sync(&c)
	if c.State != StateFinder || c.GroupID != 4 || c.Leader != -1 {
		t.Errorf("synced card = %+v", c)
	}
}

func TestUXSGDoneBiggerTerminates(t *testing.T) {
	cfg := Config{UXSLen: 100}
	g := NewUXSG(cfg, 5, 3)
	act := g.Decide(envWith(sim.Card{ID: 9, Done: true, Gathered: true}))
	if act.Kind != sim.Terminate || !act.Gathered {
		t.Errorf("action = %+v, want gathered termination", act)
	}
	if !g.Terminated() {
		t.Error("controller not marked terminated")
	}
}

func TestUXSGFollowerJoinsLargest(t *testing.T) {
	cfg := Config{UXSLen: 100}
	g := NewUXSG(cfg, 5, 3)
	act := g.Decide(envWith(sim.Card{ID: 9}, sim.Card{ID: 7}))
	if act.Kind != sim.Follow || act.Target != 9 {
		t.Errorf("action = %+v, want follow 9", act)
	}
	// Later, an even larger robot appears: re-point.
	act = g.Decide(envWith(sim.Card{ID: 9}, sim.Card{ID: 12}))
	if act.Kind != sim.Follow || act.Target != 12 {
		t.Errorf("action = %+v, want follow 12", act)
	}
}

func TestUXSGFollowerTerminatesOnLeaderSignal(t *testing.T) {
	cfg := Config{UXSLen: 100}
	g := NewUXSG(cfg, 5, 3)
	g.Decide(envWith(sim.Card{ID: 9})) // start following 9
	env := envWith(sim.Card{ID: 9})
	env.Inbox = []sim.Message{{From: 9, Kind: sim.MsgTerminate}}
	act := g.Decide(env)
	if act.Kind != sim.Terminate || !act.Gathered {
		t.Errorf("action = %+v, want gathered termination", act)
	}
}

func TestUXSGIgnoresStrangersTerminateSignal(t *testing.T) {
	cfg := Config{UXSLen: 100}
	g := NewUXSG(cfg, 5, 3)
	g.Decide(envWith(sim.Card{ID: 9}))
	env := envWith(sim.Card{ID: 9})
	env.Inbox = []sim.Message{{From: 7, Kind: sim.MsgTerminate}}
	act := g.Decide(env)
	if act.Kind == sim.Terminate {
		t.Error("follower obeyed a non-leader's terminate signal")
	}
}

func TestUXSGLeaderScheduleShape(t *testing.T) {
	// A lone leader with ID 2 (bits [0,1]) under T=10: rounds 0..9 wait
	// (bit0=0 first half), 10..19 explore, 20..29 explore (bit1=1),
	// 30..39 wait, then terminal wait 40..59, terminate at 60.
	cfg := Config{UXSLen: 10}
	g := NewUXSG(cfg, 3, 2)
	moves := make([]bool, 0, 61)
	var last sim.Action
	for r := 0; r <= 60; r++ {
		last = g.Decide(envWith())
		moves = append(moves, last.Kind == sim.Move)
	}
	for r := 0; r < 10; r++ {
		if moves[r] {
			t.Fatalf("round %d: moved during 0-bit wait half", r)
		}
	}
	for r := 10; r < 30; r++ {
		if !moves[r] {
			t.Fatalf("round %d: idle during explore half", r)
		}
	}
	for r := 30; r < 60; r++ {
		if moves[r] {
			t.Fatalf("round %d: moved during wait", r)
		}
	}
	if last.Kind != sim.Terminate || !last.Gathered {
		t.Fatalf("final action = %+v, want termination", last)
	}
}

func TestFasterSegmentLengths(t *testing.T) {
	cfg := Config{UXSLen: 64}
	a := NewFasterAgent(cfg, 6, 3)
	if got := a.segLen(0); got != R(6) {
		t.Errorf("segment 0 length = %d, want R(6)=%d", got, R(6))
	}
	if got := a.segLen(1); got != cfg.HopDuration(1, 6) {
		t.Errorf("segment 1 length = %d, want hop1=%d", got, cfg.HopDuration(1, 6))
	}
	if got := a.segLen(11); got != 0 {
		t.Errorf("UXS segment length = %d, want 0 (self-timed)", got)
	}
}

func TestConfigOverrides(t *testing.T) {
	c := Config{UXSLen: 123}
	if c.UXSLength(50) != 123 {
		t.Error("UXSLen override ignored")
	}
	var d Config
	if d.UXSLength(4) != 8*4*4*4 {
		t.Errorf("default scaled length = %d", d.UXSLength(4))
	}
	if (Config{}).UXSPhaseLen(4) != 2*8*64 {
		t.Errorf("phase length = %d", (Config{}).UXSPhaseLen(4))
	}
}

func TestFasterBoundDominatesStepBounds(t *testing.T) {
	cfg := Config{UXSLen: 100}
	for n := 2; n <= 10; n++ {
		total := cfg.FasterBound(n)
		partial := R(n) + 1
		for i := 2; i <= 6; i++ {
			partial += cfg.HopDuration(i-1, n) + R(n) + 1
		}
		if total < partial {
			t.Fatalf("n=%d: FasterBound %d < steps-only %d", n, total, partial)
		}
	}
}

// Property: any undispersed random scenario gathers with detection within
// R(n)+1 rounds — Theorem 8 as a quick-check invariant.
func TestUndispersedPropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 3
		rng := graph.NewRNG(seed)
		g := graph.MustRandomConnected(n, min(2*n, n*(n-1)/2), rng)
		g = g.WithPermutedPorts(rng)
		k := int(kRaw)%(n-1) + 2
		ids := AssignIDs(k, n, rng)
		pos := make([]int, k)
		pos[0] = rng.Intn(n)
		pos[1] = pos[0] // force the undispersed seed
		for i := 2; i < k; i++ {
			pos[i] = rng.Intn(n)
		}
		sc := &Scenario{G: g, IDs: ids, Positions: pos}
		res, err := sc.Run("undispersed", 0, R(n)+2)
		return err == nil && res.DetectionCorrect && res.Rounds <= R(n)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: runs are bit-for-bit deterministic — identical seeds produce
// identical results.
func TestDeterministicReplay(t *testing.T) {
	run := func() sim.Result {
		rng := graph.NewRNG(2718)
		g := graph.FromFamily(graph.FamRandom, 9, rng)
		sc := &Scenario{
			G:         g,
			IDs:       AssignIDs(5, g.N(), rng),
			Positions: []int{0, 0, 3, 5, 7},
		}
		res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(g.N())+10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.TotalMoves != b.TotalMoves {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	for i := range a.FinalPositions {
		if a.FinalPositions[i] != b.FinalPositions[i] {
			t.Fatalf("final positions diverged: %v vs %v", a.FinalPositions, b.FinalPositions)
		}
	}
}

func TestHopMeetDoneNeverMoves(t *testing.T) {
	cfg := Config{}
	h := NewHopMeet(cfg, 1, 4, 3)
	for r := 0; r < cfg.HopDuration(1, 4)+5; r++ {
		act := h.Decide(envWith())
		if h.Done() && act.Kind != sim.Stay {
			t.Fatalf("round %d: finished procedure still acting: %+v", r, act)
		}
	}
	if !h.Done() {
		t.Fatal("procedure never finished")
	}
}

func TestHopMeetFreezeIsPermanent(t *testing.T) {
	cfg := Config{}
	h := NewHopMeet(cfg, 1, 5, 3) // ID 3 = bits [1,1]: would explore
	// First round: co-located with someone -> freeze.
	if act := h.Decide(envWith(sim.Card{ID: 8})); act.Kind != sim.Stay {
		t.Fatalf("meeting round action = %+v, want stay", act)
	}
	if !h.Met() {
		t.Fatal("not frozen after meeting")
	}
	// Even alone afterwards (the other robot is frozen too, but test the
	// controller in isolation): stays forever.
	for r := 0; r < 50; r++ {
		if act := h.Decide(envWith()); act.Kind != sim.Stay {
			t.Fatalf("frozen robot acted: %+v", act)
		}
	}
}
