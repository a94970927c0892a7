package gather

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/uxs"
)

func TestScenarioValidate(t *testing.T) {
	g := graph.Path(4)
	good := &Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, 3}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []*Scenario{
		{G: nil, IDs: []int{1}, Positions: []int{0}},
		{G: g, IDs: []int{1}, Positions: []int{0, 1}},
		{G: g, IDs: nil, Positions: nil},
		{G: g, IDs: []int{1, 1}, Positions: []int{0, 1}},
		{G: g, IDs: []int{0}, Positions: []int{0}},
		{G: g, IDs: []int{1}, Positions: []int{9}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestScenarioDispersed(t *testing.T) {
	g := graph.Path(4)
	if !(&Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, 3}}).Dispersed() {
		t.Error("distinct nodes reported undispersed")
	}
	if (&Scenario{G: g, IDs: []int{1, 2}, Positions: []int{2, 2}}).Dispersed() {
		t.Error("shared node reported dispersed")
	}
}

func TestScenarioMinPairDistance(t *testing.T) {
	g := graph.Path(6)
	sc := &Scenario{G: g, IDs: []int{1, 2, 3}, Positions: []int{0, 3, 5}}
	if d := sc.MinPairDistance(); d != 2 {
		t.Errorf("min distance = %d, want 2", d)
	}
	one := &Scenario{G: g, IDs: []int{1}, Positions: []int{0}}
	if d := one.MinPairDistance(); d != -1 {
		t.Errorf("single robot distance = %d, want -1", d)
	}
	co := &Scenario{G: g, IDs: []int{1, 2}, Positions: []int{4, 4}}
	if d := co.MinPairDistance(); d != 0 {
		t.Errorf("co-located distance = %d, want 0", d)
	}
}

// A scenario's T comes from n and the mode alone, as the paper's robots
// compute it, and the sequence of that length covers the graph.
func TestScenarioUXSLengthFromN(t *testing.T) {
	rng := graph.NewRNG(3)
	g := graph.FromFamily(graph.FamLollipop, 10, rng)
	for _, m := range []uxs.Mode{uxs.Scaled, uxs.Faithful} {
		sc := &Scenario{G: g, IDs: []int{1}, Positions: []int{0}, Cfg: Config{UXSMode: m}}
		T := sc.Cfg.UXSLength(g.N())
		if T != uxs.Length(m, g.N()) {
			t.Errorf("%s: T = %d, want uxs.Length = %d", m, T, uxs.Length(m, g.N()))
		}
		if err := uxs.WithLength(g.N(), T).Check(g); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestRunnersRejectInvalidScenario(t *testing.T) {
	sc := &Scenario{G: graph.Path(3), IDs: []int{1, 1}, Positions: []int{0, 1}}
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet", "dessmark", "beep"} {
		if _, err := sc.Run(algo, 1, 10); err == nil {
			t.Errorf("%s accepted duplicate IDs", algo)
		}
	}
}

// An unknown name is an error with the CLI's text, on every builder and
// with or without an arena.
func TestUnknownAlgorithm(t *testing.T) {
	sc := &Scenario{G: graph.Path(3), IDs: []int{1, 2}, Positions: []int{0, 2}}
	const want = `unknown algorithm "x"`
	for _, a := range []*Arena{nil, NewArena()} {
		if _, _, err := sc.World(a, "x", 0); err == nil || err.Error() != want {
			t.Errorf("World(arena %v): err = %v, want %s", a != nil, err, want)
		}
	}
	if _, err := sc.Run("x", 0, 0); err == nil || err.Error() != want {
		t.Errorf("Run: err = %v, want %s", err, want)
	}
	if _, _, err := sc.DelayedWorld("x", []int{0, 0}); err == nil || err.Error() != want {
		t.Errorf("DelayedWorld: err = %v, want %s", err, want)
	}
}
