package gather

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/uxs"
)

// These tests run the algorithms under the PAPER-FAITHFUL sequence length
// T = Θ(n⁵ log n) (uxs.Faithful) instead of the scaled default, at sizes
// where that is feasible. They validate that nothing in the pipeline
// depends on the scaled lengths: the schedules, phase arithmetic and
// detection logic all work under the paper's own budgets.

func TestFaithfulUXSGatherTinyN(t *testing.T) {
	rng := graph.NewRNG(11)
	for _, n := range []int{4, 5} {
		g := graph.FromFamily(graph.FamRandom, n, rng)
		sc := &Scenario{
			G:         g,
			IDs:       []int{2, 3},
			Positions: []int{0, g.N() - 1},
			Cfg:       Config{UXSMode: uxs.Faithful},
		}
		T := sc.Cfg.UXSLength(g.N())
		want := g.N() * g.N() * g.N() * g.N() * g.N()
		if T < want {
			t.Fatalf("n=%d: faithful T=%d below n^5=%d", g.N(), T, want)
		}
		res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(g.N())+2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("n=%d: faithful-mode UXS gathering failed: %+v", g.N(), res)
		}
	}
}

func TestFaithfulCoverageTinyN(t *testing.T) {
	// The faithful-length sequence must cover every connected graph we
	// can enumerate cheaply.
	rng := graph.NewRNG(13)
	for _, n := range []int{3, 4, 5} {
		u := uxs.New(n, uxs.Faithful)
		for trial := 0; trial < 5; trial++ {
			g := graph.MustRandomConnected(n, n-1+trial%2, rng)
			g = g.WithPermutedPorts(rng)
			if err := u.Check(g); err != nil {
				t.Errorf("n=%d trial %d: faithful sequence: %v", n, trial, err)
			}
		}
	}
}

func TestFaithfulFasterTinyN(t *testing.T) {
	// The complete staged algorithm under paper budgets: n=4, two robots
	// at distance 2 — resolved in step 3 without ever reaching the
	// (enormous under faithful T) UXS tail.
	g := graph.Path(4)
	sc := &Scenario{
		G:         g,
		IDs:       []int{1, 2},
		Positions: []int{0, 2},
		Cfg:       Config{UXSMode: uxs.Faithful},
	}
	cap := 3*R(4) + sc.Cfg.HopDuration(1, 4) + sc.Cfg.HopDuration(2, 4) + 5
	res, err := sc.Run("faster", 0, cap)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("faithful-mode Faster-Gathering failed: %+v", res)
	}
}

func TestFaithfulBeepTinyN(t *testing.T) {
	g := graph.Cycle(4)
	sc := &Scenario{
		G:         g,
		IDs:       []int{2, 3},
		Positions: []int{0, 2},
		Cfg:       Config{UXSMode: uxs.Faithful},
	}
	res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(4)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("faithful-mode beep gathering failed: %+v", res)
	}
}
