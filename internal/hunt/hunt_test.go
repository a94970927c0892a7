package hunt

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim/fault"
)

// testConfig is a small hunt over a fixed 4x4 grid: fast enough for -race
// and deterministic by construction.
func testConfig(t *testing.T) Config {
	t.Helper()
	g, err := graph.ParseWorkload("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := g.Build(graph.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.Parse("crash:1")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		G: inst, Algo: "faster", Radius: 2, K: 4,
		Faults: fs, Seed: 42, Population: 6, Generations: 2, Parallelism: 2,
	}
}

func TestHuntDeterministicAcrossExecutionShapes(t *testing.T) {
	cfg := testConfig(t)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ par, batch int }{{1, 0}, {4, 0}, {2, 4}, {1, 8}} {
		cfg := cfg
		cfg.Parallelism, cfg.BatchWidth = shape.par, shape.batch
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ref) {
			t.Errorf("parallel=%d batch=%d: hunt diverged:\n got %+v\nwant %+v",
				shape.par, shape.batch, got, ref)
		}
	}
}

func TestHuntElitismIsMonotone(t *testing.T) {
	res, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GenBest) != 3 { // generation 0 + 2 search generations
		t.Fatalf("GenBest has %d entries, want 3", len(res.GenBest))
	}
	if res.GenBest[0] != res.Gen0Best {
		t.Errorf("GenBest[0] = %+v, want the uniform-sample best %+v", res.GenBest[0], res.Gen0Best)
	}
	for i := 1; i < len(res.GenBest); i++ {
		if Worse(res.GenBest[i-1], res.GenBest[i]) {
			t.Errorf("incumbent regressed at generation %d: %+v after %+v",
				i, res.GenBest[i], res.GenBest[i-1])
		}
	}
	if Worse(res.Gen0Best, res.Best) {
		t.Errorf("final best %+v is better than generation 0's %+v (elitism broken)", res.Best, res.Gen0Best)
	}
	if res.GenBest[len(res.GenBest)-1] != res.Best {
		t.Errorf("final incumbent %+v != Best %+v", res.GenBest[len(res.GenBest)-1], res.Best)
	}
}

func TestHuntMemoizesRepeatedSeeds(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	max := cfg.Population * (cfg.Generations + 1)
	// Elites are carried verbatim into every later generation, so the
	// hunt must evaluate strictly fewer runs than population x generations.
	if res.Evaluated >= max {
		t.Errorf("evaluated %d seeds, want < %d (elites must not re-run)", res.Evaluated, max)
	}
	if res.Evaluated < cfg.Population {
		t.Errorf("evaluated %d seeds, want >= the %d of generation 0", res.Evaluated, cfg.Population)
	}
}

func TestWorseRanking(t *testing.T) {
	clean := Candidate{Seed: 5, Rounds: 100, Moves: 10}
	slower := Candidate{Seed: 9, Rounds: 200, Moves: 5}
	crashed := Candidate{Seed: 1, Rounds: 0, Crashed: true}
	if !Worse(slower, clean) {
		t.Error("more rounds must rank worse")
	}
	if Worse(crashed, clean) {
		t.Error("a crashed run must rank below any clean run")
	}
	if !Worse(clean, crashed) {
		t.Error("a clean run must rank above a crashed one")
	}
	busier := clean
	busier.Moves++
	if !Worse(busier, clean) {
		t.Error("equal rounds: more moves must rank worse")
	}
	twin := clean
	twin.Seed = 4
	if !Worse(twin, clean) {
		t.Error("full tie: the smaller seed must rank first")
	}
}

func TestHuntRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	cfg := testConfig(t)
	cfg.K = 0
	if _, err := Run(cfg); err == nil {
		t.Error("k=0 accepted")
	}
	cfg = testConfig(t)
	cfg.Algo = "psychic"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
