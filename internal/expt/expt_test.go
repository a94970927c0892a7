package expt

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/uxs"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(all))
	}
	for i, e := range all {
		want := i + 1
		if idNum(e.ID) != want {
			t.Errorf("position %d holds %s, want E%d", i, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

// All() sorts by the number embedded in the ID; the registry spans E1..E18
// today and must keep sorting correctly as experiments are added (E19,
// E20, ... — including multi-digit IDs past E99).
func TestIDNumOrdering(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{{"E1", 1}, {"E9", 9}, {"E10", 10}, {"E13", 13}, {"E18", 18}, {"E19", 19}, {"E107", 107}, {"X", 0}}
	for _, c := range cases {
		if got := idNum(c.id); got != c.want {
			t.Errorf("idNum(%q) = %d, want %d", c.id, got, c.want)
		}
	}
	if idNum("E2") > idNum("E10") {
		t.Error("numeric ordering broken: E2 must sort before E10")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Error("E3 not found")
	}
	if _, ok := ByID("e3"); !ok {
		t.Error("lookup not case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("phantom experiment found")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("a", "bbbb")
	tb.Add(1, 2.5)
	tb.Add("xx", "y")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"a", "bbbb", "2.50", "xx"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

// The scheduler-ablation experiment must produce bit-identical output at
// every worker count: its jobs build their schedulers from case seeds
// fixed at submission, never from scheduling order. Run under -race this
// also exercises the scheduler/engine paths on a concurrent worker pool.
func TestE19ParallelDeterminism(t *testing.T) {
	e, ok := ByID("E19")
	if !ok {
		t.Fatal("E19 not registered")
	}
	var serial, parallel bytes.Buffer
	if err := e.Run(&serial, Options{Quick: true, Seed: 42, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(&parallel, Options{Quick: true, Seed: 42, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("E19 output differs between 1 and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// Each fast experiment must run cleanly in quick mode and emit at least
// one PASS verdict. The heavyweight ones (E2, E4) are exercised by the
// root-level benchmarks instead.
func TestQuickExperimentsRun(t *testing.T) {
	fast := map[string]bool{"E1": true, "E3": true, "E5": true, "E6": true,
		"E7": true, "E8": true, "E9": true, "E10": true, "E11": true,
		"E12": true, "E13": true, "E14": true, "E15": true, "E16": true,
		"E17": true, "E18": true, "E19": true, "E20": true}
	for _, e := range All() {
		if !fast[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "[PASS]") {
				t.Errorf("%s produced no PASS verdict:\n%s", e.ID, out)
			}
			if strings.Contains(out, "[FAIL]") {
				t.Errorf("%s produced a FAIL verdict:\n%s", e.ID, out)
			}
		})
	}
}

// A sequence too short to cover its instance stops the experiment with a
// *uxs.CoverError naming the graph, the start node and T; T is never
// lengthened to make the check pass.
func TestCheckCoverTypedError(t *testing.T) {
	g, err := graph.BuildWorkload("path:8", graph.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	err = checkCover(g, gather.Config{UXSLen: 1})
	var ce *uxs.CoverError
	if !errors.As(err, &ce) {
		t.Fatalf("checkCover = %v, want a *uxs.CoverError", err)
	}
	if ce.Graph != g.String() || ce.Start != 0 || ce.T != 1 {
		t.Errorf("CoverError = %+v, want graph %s, start node 0, T 1", *ce, g)
	}
	for _, want := range []string{g.String(), "node 0", "T=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if err := checkCover(g, gather.Config{}); err != nil {
		t.Errorf("T from n: %v", err)
	}
}
