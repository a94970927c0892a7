package gather

import (
	"testing"

	"repro/internal/graph"
)

func TestDessmarkTwoRobotsMeet(t *testing.T) {
	rng := graph.NewRNG(7)
	for _, d := range []int{1, 2, 3} {
		g := graph.Path(8)
		g = g.WithPermutedPorts(rng)
		sc := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{0, d}}
		cfg := sc.Cfg
		cap := 0
		for i := 1; i <= d+1; i++ {
			cap += cfg.HopDuration(i, 8) + 1
		}
		res, err := sc.Run("dessmark", 0, cap+10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("distance %d: baseline failed: %+v", d, res)
		}
	}
}

func TestDessmarkRoundsGrowWithDistance(t *testing.T) {
	// The baseline's cost grows with initial distance (E13 measures the
	// exponential blow-up; here we just check monotonicity on a path).
	// IDs 1 (bits [1]) and 2 (bits [0,1]) never explore simultaneously,
	// so a distance-d pair can only meet in the radius-d phase and no
	// lucky mid-walk crossing can shortcut earlier phases.
	rng := graph.NewRNG(13)
	prev := 0
	for _, d := range []int{1, 2, 3} {
		g := graph.Path(10)
		g = g.WithPermutedPorts(rng)
		sc := &Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, d}}
		res, err := sc.Run("dessmark", 0, sc.Cfg.HopDuration(d+1, 10)*4+10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllTerminated {
			t.Fatalf("distance %d: baseline did not finish", d)
		}
		if res.Rounds <= prev {
			t.Errorf("distance %d: rounds %d not greater than distance %d's %d",
				d, res.Rounds, d-1, prev)
		}
		prev = res.Rounds
	}
}

func TestDessmarkCoLocatedPair(t *testing.T) {
	g := graph.Cycle(5)
	sc := &Scenario{G: g, IDs: []int{2, 9}, Positions: []int{1, 1}}
	res, err := sc.Run("dessmark", 0, sc.Cfg.HopDuration(1, 5)+10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("co-located pair: %+v", res)
	}
}
