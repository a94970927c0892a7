package gather

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/place"
)

// This file checks the paper's lemmas as executable statements, one test
// per lemma, so a regression in any proof obligation is caught by name.

// Lemma 1: a robot waiting out its terminal 2T rounds is met exactly when
// some group's leader has a strictly longer ID.
func TestLemma1WaiterMetIffLongerID(t *testing.T) {
	rng := graph.NewRNG(101)
	g := graph.FromFamily(graph.FamCycle, 6, rng)
	// Case A ("if"): IDs 1 (1 bit) and 8 (4 bits). Robot 1 finishes its
	// bits after one phase and waits during [2T, 4T); robot 8 is still
	// working, so they must meet no later than robot 1's wait window.
	sc := &Scenario{G: g, IDs: []int{1, 8}, Positions: []int{0, 3}}
	T := sc.Cfg.UXSLength(g.N())
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(g.N())+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("case A failed: %+v", res)
	}
	if res.FirstMeetRound > 4*T {
		t.Errorf("longer-ID robot met the waiter at round %d, after its wait window ended at %d",
			res.FirstMeetRound, 4*T)
	}

	// Case B ("only if"): equal-length IDs finish simultaneously; nobody
	// can catch anybody during the terminal wait, so the meeting must
	// have happened earlier, during the first differing-bit phase.
	scB := &Scenario{G: g, IDs: []int{10, 12}, Positions: []int{0, 3}} // 1010 vs 1100
	scB.Cfg = sc.Cfg
	resB, err := scB.Run("uxs", 0, scB.Cfg.UXSGatherBound(g.N())+2)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.DetectionCorrect {
		t.Fatalf("case B failed: %+v", resB)
	}
	bitsEnd := 4 * 2 * T // both have 4 bits
	if resB.FirstMeetRound >= bitsEnd {
		t.Errorf("equal-length IDs met at %d, during/after the terminal wait at %d", resB.FirstMeetRound, bitsEnd)
	}
}

// Lemma 2: when a leader's terminal wait passes in silence, gathering is
// complete — i.e., the §2.1 algorithm never terminates prematurely.
func TestLemma2NoPrematureTermination(t *testing.T) {
	rng := graph.NewRNG(202)
	for trial := 0; trial < 6; trial++ {
		g := graph.FromFamily(graph.AllFamilies()[trial%7], 6+trial%3, rng)
		n := g.N()
		k := 2 + trial%3
		sc := &Scenario{G: g, IDs: AssignIDs(k, n, rng), Positions: place.Random(g, k, rng)}
		w, cap, err := sc.World(nil, "uxs", 0)
		if err != nil {
			t.Fatal(err)
		}
		for w.Round() < cap && !w.AllDone() {
			w.Step()
			if w.DoneCount() > 0 && !w.AllColocated() {
				t.Fatalf("trial %d: robot terminated at round %d before gathering", trial, w.Round())
			}
		}
		if !w.Summary().DetectionCorrect {
			t.Fatalf("trial %d: %+v", trial, w.Summary())
		}
	}
}

// Lemma 7: by the time the minimum-groupid finder finishes its Phase 2
// tour, every robot is at that finder's Phase 2 start node. (The
// stronger variant with waiters sitting ON the home node.)
func TestLemma7IncludingWaiterAtHome(t *testing.T) {
	g := graph.Cycle(7)
	rng := graph.NewRNG(303)
	g = g.WithPermutedPorts(rng)
	// Group {2, 9} at node 4 (finder 2, home 4); waiters at 4's neighbors
	// and on the home node region.
	sc := &Scenario{
		G:         g,
		IDs:       []int{2, 9, 5, 7, 11},
		Positions: []int{4, 4, 0, 2, 6},
	}
	res, err := sc.Run("undispersed", 0, R(7)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	for i, p := range res.FinalPositions {
		if p != 4 {
			t.Errorf("robot %d ended at %d, want the min finder's home 4", sc.IDs[i], p)
		}
	}
}

// Lemma 11: at the end of any Undispersed-Gathering run started from a
// dispersed configuration, every robot is alone (nobody moved at all); and
// from an undispersed configuration, nobody ends alone.
func TestLemma11AlonenessIsUnanimous(t *testing.T) {
	rng := graph.NewRNG(404)
	for trial := 0; trial < 8; trial++ {
		g := graph.FromFamily(graph.AllFamilies()[trial%7], 7+trial%4, rng)
		n := g.N()
		k := min(2+trial%4, n)
		dispersed := trial%2 == 0
		var pos []int
		if dispersed {
			pos = place.RandomDispersed(g, k, rng)
		} else {
			pos = place.Clustered(g, k, max(1, k-1), rng)
			pos[1] = pos[0] // guarantee one co-located pair
		}
		sc := &Scenario{G: g, IDs: AssignIDs(k, n, rng), Positions: pos}
		res, err := sc.Run("undispersed", 0, R(n)+2)
		if err != nil {
			t.Fatal(err)
		}
		occupied := map[int]int{}
		for _, p := range res.FinalPositions {
			occupied[p]++
		}
		if dispersedInput := sc.Dispersed(); dispersedInput {
			//repolint:ordered every node is checked independently; order can only permute failure messages
			for node, c := range occupied {
				if c > 1 {
					t.Fatalf("trial %d: dispersed input but %d robots share node %d", trial, c, node)
				}
			}
			if res.TotalMoves != 0 {
				t.Fatalf("trial %d: dispersed input but robots moved", trial)
			}
		} else {
			if len(occupied) != 1 {
				t.Fatalf("trial %d: undispersed input but robots ended on %d nodes", trial, len(occupied))
			}
		}
	}
}

// Lemma 15 (exhaustive for small n): for EVERY subset-free placement the
// adversary could choose — here approximated by exhaustive enumeration of
// all dispersed placements on small graphs — floor(n/c)+1 robots include
// a pair within 2c-2 hops.
func TestLemma15ExhaustivePlacements(t *testing.T) {
	rng := graph.NewRNG(505)
	for _, fam := range []graph.Family{graph.FamPath, graph.FamCycle, graph.FamTree} {
		g := graph.FromFamily(fam, 8, rng)
		n := g.N()
		c := 2
		k := n/c + 1
		dist := g.AllPairsDistances()
		// Enumerate all k-subsets of nodes as placements.
		subset := make([]int, k)
		var rec func(start, idx int)
		rec = func(start, idx int) {
			if idx == k {
				best := -1
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						d := dist[subset[i]][subset[j]]
						if best < 0 || d < best {
							best = d
						}
					}
				}
				if best > 2*c-2 {
					t.Fatalf("%s: placement %v has min distance %d > %d", fam, subset, best, 2*c-2)
				}
				return
			}
			for v := start; v < n; v++ {
				subset[idx] = v
				rec(v+1, idx+1)
			}
		}
		rec(0, 0)
	}
}
