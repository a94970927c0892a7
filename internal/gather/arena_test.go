package gather

import (
	"testing"

	"repro/internal/graph"
)

// Arena.Overlay hands back the same overlay, rewound to round zero, while
// the key (graph, rate, seed) matches; it rebuilds on any key change; and
// a nil arena builds a fresh overlay on every call.
func TestArenaOverlay(t *testing.T) {
	g, h := graph.Torus(4, 4), graph.Torus(4, 4)
	a := NewArena()
	ov := a.Overlay(g, 0.3, 7)
	ov.AdvanceTo(20)
	if ov.Applied() != 21 {
		t.Fatalf("applied %d rounds, want 21", ov.Applied())
	}
	again := a.Overlay(g, 0.3, 7)
	if again != ov {
		t.Fatal("key match rebuilt the overlay")
	}
	if again.Applied() != 0 || again.ClosedEdges() != 0 {
		t.Fatalf("key match not rewound: applied %d, closed %d", again.Applied(), again.ClosedEdges())
	}
	// Rewound means replaying a fresh overlay's churn bit for bit.
	fresh := graph.NewOverlay(g, 0.3, 7)
	again.AdvanceTo(20)
	fresh.AdvanceTo(20)
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Degree(u); p++ {
			if again.Open(u, p) != fresh.Open(u, p) {
				t.Fatalf("rewound overlay diverged from a fresh one at node %d port %d", u, p)
			}
		}
	}

	for _, c := range []struct {
		name string
		g    *graph.Graph
		rate float64
		seed uint64
	}{
		{"graph", h, 0.3, 7},
		{"rate", g, 0.4, 7},
		{"seed", g, 0.3, 8},
	} {
		prev := a.Overlay(g, 0.3, 7)
		got := a.Overlay(c.g, c.rate, c.seed)
		if got == prev || got.Base() != c.g || got.Rate() != c.rate || got.Seed() != c.seed {
			t.Errorf("%s change: overlay not rebuilt for the new key", c.name)
		}
	}

	var none *Arena
	f1, f2 := none.Overlay(g, 0.3, 7), none.Overlay(g, 0.3, 7)
	if f1 == f2 || f1.Base() != g || f1.Applied() != 0 {
		t.Error("a nil arena did not build a fresh overlay per call")
	}
}
