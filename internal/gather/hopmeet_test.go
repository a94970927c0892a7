package gather

import (
	"testing"

	"repro/internal/graph"
)

func TestDFSEnumPathGraphDepth1(t *testing.T) {
	// At a degree-1 node, depth-1 enumeration is: down port 0, back up.
	g := graph.Path(2)
	e := newDFSEnum(1)
	cur, arrival := 0, -1
	var moves []int
	for {
		p := e.Step(g.Degree(cur), arrival)
		if p < 0 {
			break
		}
		moves = append(moves, p)
		cur, arrival = g.Neighbor(cur, p)
	}
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want 2 moves", moves)
	}
	if cur != 0 {
		t.Fatalf("enumeration ended at %d, want start node 0", cur)
	}
}

// runEnum walks a full enumeration and returns visited nodes and move count.
func runEnum(t *testing.T, g *graph.Graph, start, depth int) (visited map[int]bool, moves int, end int) {
	t.Helper()
	e := newDFSEnum(depth)
	visited = map[int]bool{start: true}
	cur, arrival := start, -1
	for moves = 0; ; moves++ {
		p := e.Step(g.Degree(cur), arrival)
		if p < 0 {
			break
		}
		if p >= g.Degree(cur) {
			t.Fatalf("invalid port %d at degree-%d node", p, g.Degree(cur))
		}
		cur, arrival = g.Neighbor(cur, p)
		visited[cur] = true
	}
	return visited, moves, cur
}

func TestDFSEnumVisitsBallAndReturns(t *testing.T) {
	rng := graph.NewRNG(13)
	for _, fam := range []graph.Family{graph.FamPath, graph.FamCycle, graph.FamGrid, graph.FamRandom} {
		g := graph.FromFamily(fam, 10, rng)
		for depth := 1; depth <= 3; depth++ {
			start := rng.Intn(g.N())
			visited, moves, end := runEnum(t, g, start, depth)
			if end != start {
				t.Fatalf("%s depth=%d: ended at %d, want %d", fam, depth, end, start)
			}
			dist := g.BFSDistances(start)
			for v, d := range dist {
				if d <= depth && !visited[v] {
					t.Errorf("%s depth=%d: node %d at distance %d not visited", fam, depth, v, d)
				}
			}
			budget := Config{}.CycleT(depth, g.N())
			if moves > budget {
				t.Errorf("%s depth=%d: %d moves > cycle budget %d", fam, depth, moves, budget)
			}
		}
	}
}

func TestDFSEnumMoveCountOnCompleteGraph(t *testing.T) {
	// On K4 every node has degree 3: depth-2 enumeration makes
	// 2*(3 + 9) = 24 moves, the exact worst case of the budget.
	g := graph.Complete(4)
	_, moves, _ := runEnum(t, g, 0, 2)
	if moves != 24 {
		t.Fatalf("moves = %d, want 24", moves)
	}
	if b := (Config{}).CycleT(2, 4); moves != b {
		t.Fatalf("budget %d != exact enumeration %d on complete graph", b, moves)
	}
}

// pairScenario places two robots with the given IDs at the given nodes.
func pairScenario(g *graph.Graph, id1, id2, p1, p2 int) *Scenario {
	return &Scenario{G: g, IDs: []int{id1, id2}, Positions: []int{p1, p2}}
}

func TestHopMeetPairAtDistanceMeets(t *testing.T) {
	rng := graph.NewRNG(55)
	for _, radius := range []int{1, 2, 3} {
		for _, fam := range []graph.Family{graph.FamPath, graph.FamCycle, graph.FamGrid} {
			g := graph.FromFamily(fam, 12, rng)
			// Find a pair of nodes at exactly the radius distance.
			u, v := -1, -1
			for a := 0; a < g.N() && u < 0; a++ {
				d := g.BFSDistances(a)
				for b := 0; b < g.N(); b++ {
					if d[b] == radius {
						u, v = a, b
						break
					}
				}
			}
			if u < 0 {
				t.Fatalf("%s: no pair at distance %d", fam, radius)
			}
			sc := pairScenario(g, 5, 6, u, v) // IDs differing in bit 0
			res, err := sc.Run("hopmeet", radius, sc.Cfg.HopDuration(radius, g.N())+1)
			if err != nil {
				t.Fatal(err)
			}
			if res.FirstMeetRound < 0 {
				t.Errorf("%s radius=%d: robots at distance %d never met", fam, radius, radius)
			}
		}
	}
}

func TestHopMeetRespectsScheduleBound(t *testing.T) {
	g := graph.Cycle(8)
	sc := pairScenario(g, 3, 12, 0, 2)
	dur := sc.Cfg.HopDuration(2, 8)
	res, err := sc.Run("hopmeet", 2, dur+5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllTerminated {
		t.Fatalf("procedure did not terminate within %d rounds", dur+5)
	}
	if res.FirstMeetRound < 0 || res.FirstMeetRound > dur {
		t.Errorf("meet round %d outside schedule %d", res.FirstMeetRound, dur)
	}
}

func TestHopMeetFrozenRobotsStayTogether(t *testing.T) {
	g := graph.Path(6)
	sc := pairScenario(g, 5, 6, 2, 3) // adjacent robots
	dur := sc.Cfg.HopDuration(1, 6)
	res, err := sc.Run("hopmeet", 1, dur+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPositions[0] != res.FinalPositions[1] {
		t.Fatalf("met robots separated again: %v", res.FinalPositions)
	}
	if !res.Gathered {
		t.Fatal("pair not gathered at end")
	}
}

func TestHopMeetTooFarDoesNotMeet(t *testing.T) {
	// Two robots at distance 4 with radius-1 meeting and IDs chosen so
	// both always explore or both always wait would still be fine —
	// but at distance 4, radius 1 can never bring them together
	// (each mover returns home every cycle; midpoints never coincide
	// at round boundaries for this path layout).
	g := graph.Path(9)
	sc := pairScenario(g, 2, 4, 0, 8)
	dur := sc.Cfg.HopDuration(1, 9)
	res, err := sc.Run("hopmeet", 1, dur+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeetRound >= 0 {
		t.Errorf("robots at distance 8 met under radius-1 procedure (round %d)", res.FirstMeetRound)
	}
	// And they must return to their home nodes (dispersed configuration
	// restored), which Lemma 11's aloneness detection relies on.
	if res.FinalPositions[0] != 0 || res.FinalPositions[1] != 8 {
		t.Errorf("positions %v, want [0 8]", res.FinalPositions)
	}
}

func TestHopMeetManyRobotsSomePairMeets(t *testing.T) {
	// Lemma 15 + Lemma 9: with many robots on a cycle, some pair is
	// within distance 2 and the 2-hop procedure must create an
	// undispersed configuration.
	g := graph.Cycle(12)
	rng := graph.NewRNG(7)
	k := 7 // > 12/2, so some pair within 2*2-2 = 2 hops
	ids := AssignIDs(k, 12, rng)
	pos := rng.Perm(12)[:k]
	sc := &Scenario{G: g, IDs: ids, Positions: pos}
	dur := sc.Cfg.HopDuration(2, 12)
	res, err := sc.Run("hopmeet", 2, dur+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeetRound < 0 {
		t.Error("no pair met despite k > n/2")
	}
}

func TestHopMeetDeltaAblationShorter(t *testing.T) {
	// Remark 14: with Δ known, cycles shrink on bounded-degree graphs.
	n := 10
	full := Config{}
	abl := Config{KnownMaxDegree: 2}
	if abl.HopDuration(3, n) >= full.HopDuration(3, n) {
		t.Error("Δ-ablated schedule not shorter on a degree-2 graph")
	}
	// And the procedure still works on the cycle (Δ=2).
	g := graph.Cycle(n)
	sc := pairScenario(g, 5, 6, 0, 3)
	sc.Cfg = abl
	res, err := sc.Run("hopmeet", 3, abl.HopDuration(3, n)+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeetRound < 0 {
		t.Error("pair at distance 3 did not meet under Δ-ablated schedule")
	}
}

func TestHopMeetAgentVerdicts(t *testing.T) {
	g := graph.Path(4)
	sc := pairScenario(g, 5, 6, 1, 2)
	res, err := sc.Run("hopmeet", 1, sc.Cfg.HopDuration(1, 4)+1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Errorf("adjacent pair: detection incorrect: %+v", res)
	}
}
