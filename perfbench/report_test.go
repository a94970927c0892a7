package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The tail reported is the highest level with at least ten samples above it.
func TestSummarizeTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail string
	}{{1, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed, so Summarize must sort
		}
		s := Summarize(xs)
		if s.TailName != c.tail || s.N != c.n {
			t.Errorf("n=%d: tail %q (N=%d), want %q", c.n, s.TailName, s.N, c.tail)
		}
		if want := percentile(xs, 0.5); s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.P50, want)
		}
	}
}

func TestAddTimingNamesAndCounts(t *testing.T) {
	r := NewReport()
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	r.AddTiming("miss", "ms", xs)
	for _, name := range []string{"miss_p50_ms", "miss_p90_ms"} {
		m, ok := r.Get(name)
		if !ok || m.N != 150 || m.Unit != "ms" {
			t.Errorf("%s = %+v, %v", name, m, ok)
		}
	}
	if _, ok := r.Get("miss_p99_ms"); ok {
		t.Error("p99 reported with only 1.5 samples beyond it")
	}
	r.AddTiming("hit", "ms", nil)
	if _, ok := r.Get("hit_p50_ms"); ok {
		t.Error("an empty distribution reported a median")
	}
}

func TestAddRejectsBadNames(t *testing.T) {
	r := NewReport()
	for _, bad := range []string{"", "a b", "p50/ms", "laténcy", "x\n"} {
		if err := r.Add(bad, 1, "ms", 1); err == nil {
			t.Errorf("Add(%q) accepted", bad)
		}
	}
	for _, good := range []string{"engine.observe_ms", "expt.E23_s", "p50-ms", "9lives"} {
		if err := r.Add(good, 1, "ms", 1); err != nil {
			t.Errorf("Add(%q): %v", good, err)
		}
	}
}

func TestResultLine(t *testing.T) {
	declared := []Declared{{Name: "p50_ms", Unit: "ms"}, {Name: "setup_s", Unit: "s"}}
	r := NewReport()
	r.Attempted = 3
	r.must("p50_ms", 1.5, "ms", 3)
	if _, err := r.Result(declared); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Fatalf("missing declared metric not reported: %v", err)
	}
	r.must("setup_s", 0.2, "ms", 1)
	if _, err := r.Result(declared); err == nil {
		t.Error("unit mismatch accepted")
	}
	r.must("setup_s", 0.2, "s", 1)
	r.must("extra_ms", 9, "ms", 1)
	line, err := r.Result(declared)
	if err != nil {
		t.Fatal(err)
	}
	var got result
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Metrics["setup_s"] != (resultMetric{0.2, "s"}) ||
		got.Metrics["p50_ms"] != (resultMetric{1.5, "ms"}) || len(got.Metrics) != 2 {
		t.Errorf("result %+v", got)
	}

	r.Fail("boom")
	line, _ = r.Result(declared)
	json.Unmarshal(line, &got)
	if got.Correct || got.Failed != 1 {
		t.Errorf("a failed operation left the run correct: %s", line)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05}, [3]float64{0.95, 1.05, 1.2}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}
