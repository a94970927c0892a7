package place

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRandomDispersedDistinct(t *testing.T) {
	rng := graph.NewRNG(1)
	g := graph.Cycle(10)
	pos := RandomDispersed(g, 7, rng)
	seen := make(map[int]bool)
	for _, p := range pos {
		if seen[p] {
			t.Fatal("dispersed placement repeated a node")
		}
		seen[p] = true
	}
}

func TestClusteredShape(t *testing.T) {
	rng := graph.NewRNG(2)
	g := graph.Grid(4, 4)
	pos := Clustered(g, 9, 3, rng)
	counts := map[int]int{}
	for _, p := range pos {
		counts[p]++
	}
	if len(counts) != 3 {
		t.Fatalf("placed on %d nodes, want 3 clusters", len(counts))
	}
	//repolint:ordered every cluster is checked independently; order can only permute failure messages
	for node, c := range counts {
		if c != 3 {
			t.Errorf("cluster at %d has %d robots, want 3", node, c)
		}
	}
}

func TestMaxMinRespectsLemma15(t *testing.T) {
	// Lemma 15: with floor(n/c)+1 robots, even the adversary cannot keep
	// all pairs farther than 2c-2 apart. MaxMinDispersed is our strongest
	// adversary, so its min pairwise distance must obey the bound.
	rng := graph.NewRNG(3)
	for _, fam := range graph.AllFamilies() {
		for _, n := range []int{8, 12, 16} {
			g := graph.FromFamily(fam, n, rng)
			for _, c := range []int{2, 3, 4} {
				k := g.N()/c + 1
				if k < 2 || k > g.N() {
					continue
				}
				pos := MaxMinDispersed(g, k, rng)
				if d := MinPairwise(g, pos); d > 2*c-2 {
					t.Errorf("%s n=%d c=%d k=%d: min distance %d > bound %d",
						fam, g.N(), c, k, d, 2*c-2)
				}
			}
		}
	}
}

func TestMaxMinBeatsRandomTypically(t *testing.T) {
	rng := graph.NewRNG(4)
	g := graph.Cycle(20)
	adv := MinPairwise(g, MaxMinDispersed(g, 4, rng))
	if adv < 4 {
		t.Errorf("adversarial min distance %d on C20 with 4 robots, want >= 4", adv)
	}
}

func TestPairAtDistance(t *testing.T) {
	rng := graph.NewRNG(5)
	g := graph.Path(9)
	for d := 0; d <= 8; d++ {
		u, v, ok := PairAtDistance(g, d, rng)
		if !ok {
			t.Fatalf("no pair at distance %d on P9", d)
		}
		if g.Distance(u, v) != d {
			t.Errorf("pair (%d,%d) at distance %d, want %d", u, v, g.Distance(u, v), d)
		}
	}
	if _, _, ok := PairAtDistance(g, 9, rng); ok {
		t.Error("found impossible distance 9 on P9")
	}
}

func TestMinPairwiseEdgeCases(t *testing.T) {
	g := graph.Path(5)
	if d := MinPairwise(g, []int{2}); d != -1 {
		t.Errorf("single robot: %d, want -1", d)
	}
	if d := MinPairwise(g, []int{1, 1}); d != 0 {
		t.Errorf("shared node: %d, want 0", d)
	}
	if d := MinPairwise(g, []int{0, 4, 2}); d != 2 {
		t.Errorf("spread: %d, want 2", d)
	}
}

// Property: MaxMinDispersed always returns distinct nodes and is never
// worse than a random dispersed placement on the same graph.
func TestMaxMinProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%12) + 4
		k := int(kRaw)%(n-1) + 2
		rng := graph.NewRNG(seed)
		g := graph.MustRandomConnected(n, min(2*n, n*(n-1)/2), rng)
		adv := MaxMinDispersed(g, k, rng)
		seen := make(map[int]bool)
		for _, p := range adv {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return MinPairwise(g, adv) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnInfeasible(t *testing.T) {
	g := graph.Path(3)
	rng := graph.NewRNG(6)
	// A map literal here would name the cases in randomized order across
	// runs (the first in-tree true positive repolint's nomapiter catches);
	// a slice keeps the case order fixed.
	cases := []struct {
		name string
		fn   func()
	}{
		{"dispersed", func() { RandomDispersed(g, 4, rng) }},
		{"maxmin", func() { MaxMinDispersed(g, 4, rng) }},
		{"clusters", func() { Clustered(g, 2, 3, rng) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on infeasible input", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// MaxMinDispersed runs one BFS per chosen point; the passes share their
// buffers, so placing 32 robots costs the same four allocations as
// placing 2 (positions, queue, closest-point distances, pass distances).
func TestMaxMinDispersedReusesBFSBuffers(t *testing.T) {
	g, err := graph.BuildWorkload("rreg:384,4", graph.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 32} {
		rng := graph.NewRNG(7)
		if allocs := testing.AllocsPerRun(10, func() { MaxMinDispersed(g, k, rng) }); allocs != 4 {
			t.Errorf("k=%d: %v allocations per placement, want 4", k, allocs)
		}
	}
}
