package gather

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

func TestBeepGatherTwoRobots(t *testing.T) {
	rng := graph.NewRNG(61)
	for _, fam := range []graph.Family{graph.FamPath, graph.FamCycle, graph.FamGrid, graph.FamRandom} {
		g := graph.FromFamily(fam, 7, rng)
		sc := &Scenario{G: g, IDs: []int{5, 12}, Positions: []int{0, g.N() - 1}}
		res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(g.N())+2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("%s: beep gathering failed: %+v", fam, res)
		}
	}
}

func TestBeepGatherCoLocatedStart(t *testing.T) {
	g := graph.Cycle(5)
	sc := &Scenario{G: g, IDs: []int{3, 7}, Positions: []int{2, 2}}
	res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(5)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("co-located start: %+v", res)
	}
	if res.Rounds > 1 {
		t.Errorf("co-located robots took %d rounds to hear each other, want 1", res.Rounds)
	}
}

func TestBeepGatherSingleRobot(t *testing.T) {
	rng := graph.NewRNG(71)
	g := graph.FromFamily(graph.FamTree, 6, rng)
	sc := &Scenario{G: g, IDs: []int{9}, Positions: []int{3}}
	res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(6)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("lone robot did not self-detect: %+v", res)
	}
}

func TestBeepGatherEqualLengthIDs(t *testing.T) {
	// Same bit length: the meeting must happen during the first
	// differing-bit phase, with beeps the only signal.
	rng := graph.NewRNG(81)
	g := graph.FromFamily(graph.FamCycle, 6, rng)
	sc := &Scenario{G: g, IDs: []int{12, 13}, Positions: []int{0, 3}}
	res, err := sc.Run("beep", 0, sc.Cfg.UXSGatherBound(6)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("equal-length IDs under beeps: %+v", res)
	}
}

func TestBeepGatherWithinBound(t *testing.T) {
	rng := graph.NewRNG(91)
	g := graph.FromFamily(graph.FamRandom, 6, rng)
	sc := &Scenario{G: g, IDs: []int{2, 3}, Positions: []int{0, 4}}
	bound := sc.Cfg.UXSGatherBound(6)
	res, err := sc.Run("beep", 0, bound+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllTerminated || res.Rounds > bound {
		t.Errorf("rounds %d exceed bound %d", res.Rounds, bound)
	}
}

func TestBeepGatherRejectsThreeRobots(t *testing.T) {
	g := graph.Path(4)
	sc := &Scenario{G: g, IDs: []int{1, 2, 3}, Positions: []int{0, 1, 2}}
	if _, err := sc.Run("beep", 0, 100); !errors.Is(err, errTooManyForBeep) {
		t.Errorf("err = %v, want errTooManyForBeep", err)
	}
}
