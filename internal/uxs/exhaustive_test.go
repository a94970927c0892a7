package uxs

import (
	"testing"

	"repro/internal/graph"
)

// This file puts teeth behind the "universal" in universal exploration
// sequence for tiny n: it enumerates EVERY labeled simple connected graph
// on 3 and 4 nodes, under both canonical and adversarially permuted port
// labelings, and verifies the scaled-length sequence covers each from
// every start node. For these sizes the enumeration is exact, so the
// substitution's contract (DESIGN.md §1) is verified exhaustively rather
// than probabilistically.

// allConnectedGraphs enumerates every labeled simple connected graph on n
// nodes (n small) by iterating over edge subsets.
func allConnectedGraphs(n int) []*graph.Graph {
	type edge struct{ u, v int }
	var edges []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, edge{u, v})
		}
	}
	var out []*graph.Graph
	for mask := 0; mask < 1<<len(edges); mask++ {
		b := graph.NewBuilder(n)
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				b.MustEdge(e.u, e.v)
			}
		}
		if g := b.Freeze(); g.M() >= n-1 && g.IsConnected() {
			out = append(out, g)
		}
	}
	return out
}

func TestExhaustiveCoverageN3(t *testing.T) {
	graphs := allConnectedGraphs(3)
	if len(graphs) != 4 {
		// 3 labeled trees (paths) + the triangle.
		t.Fatalf("found %d connected graphs on 3 nodes, want 4", len(graphs))
	}
	u := New(3, Scaled)
	for gi, g := range graphs {
		if err := u.Check(g); err != nil {
			t.Errorf("graph %d: canonical labeling: %v", gi, err)
		}
	}
}

func TestExhaustiveCoverageN4(t *testing.T) {
	graphs := allConnectedGraphs(4)
	if len(graphs) != 38 {
		// Known count of labeled connected graphs on 4 nodes.
		t.Fatalf("found %d connected graphs on 4 nodes, want 38", len(graphs))
	}
	u := New(4, Scaled)
	for gi, g := range graphs {
		if err := u.Check(g); err != nil {
			t.Errorf("graph %d: canonical labeling: %v", gi, err)
		}
	}
}

func TestExhaustiveCoverageUnderPortPermutations(t *testing.T) {
	// Adversarial labelings: for every connected 4-node graph, try many
	// independent port permutations; coverage must hold for each.
	rng := graph.NewRNG(12345)
	u := New(4, Scaled)
	for gi, g := range allConnectedGraphs(4) {
		for trial := 0; trial < 12; trial++ {
			h := g.WithPermutedPorts(rng)
			if err := h.Validate(); err != nil {
				t.Fatalf("graph %d trial %d: %v", gi, trial, err)
			}
			if err := u.Check(h); err != nil {
				t.Errorf("graph %d trial %d: permuted labeling: %v", gi, trial, err)
			}
		}
	}
}

func TestExhaustiveCoverageN5Trees(t *testing.T) {
	// All 125 labeled trees on 5 nodes (Cayley: 5^3), the sparsest and
	// hardest-to-cover connected graphs, under permuted ports.
	rng := graph.NewRNG(999)
	u := New(5, Scaled)
	count := 0
	for _, g := range allConnectedGraphs(5) {
		if g.M() != 4 {
			continue
		}
		count++
		g = g.WithPermutedPorts(rng)
		if err := u.Check(g); err != nil {
			t.Errorf("tree %d: %v", count, err)
		}
	}
	if count != 125 {
		t.Fatalf("enumerated %d labeled trees on 5 nodes, want 125", count)
	}
}
