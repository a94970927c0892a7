package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer, and the tail is one or two unlucky samples.
const minBeyond = 10

// tailLevels are the tail percentiles a timing summary may report, lowest
// first, with the suffix each gets in a metric name.
var tailLevels = []struct {
	q      float64
	suffix string
}{{0.90, "p90"}, {0.99, "p99"}, {0.999, "p999"}}

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice,
// interpolating linearly between closest ranks. It returns NaN for an
// empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of an n-sample distribution that lie above
// its q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// Timing is a latency distribution reduced to what the report prints:
// the median, the highest tail percentile with at least minBeyond samples
// above it, and the sample count.
type Timing struct {
	N        int
	P50      float64
	P90      float64 // always computed; the result-line metric for every workload
	Tail     float64 // value at TailName; 0 when no tail level qualifies
	TailName string  // "p90", "p99" or "p999"; empty when none qualifies
}

// Summarize reduces samples (any order; the slice is sorted in place).
func Summarize(xs []float64) Timing {
	sort.Float64s(xs)
	t := Timing{N: len(xs), P50: percentile(xs, 0.5), P90: percentile(xs, 0.9)}
	for _, l := range tailLevels {
		if beyond(len(xs), l.q) >= minBeyond {
			t.Tail, t.TailName = percentile(xs, l.q), l.suffix
		}
	}
	return t
}

// Metric is one measured value with its unit and sample count.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Report collects a run's metrics in the order they were measured and
// the operation tallies of its result line.
type Report struct {
	metrics   []Metric
	index     map[string]int
	Attempted int
	Failed    int
	Notes     []string // first few failure descriptions, for the log
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{index: map[string]int{}} }

// Add records a metric, replacing an earlier value of the same name. It
// rejects names outside the metric grammar.
func (r *Report) Add(name string, value float64, unit string, n int) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", name)
	}
	m := Metric{Name: name, Value: value, Unit: unit, N: n}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return nil
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
	return nil
}

// must is Add for names fixed in this program, where a bad name is a bug.
func (r *Report) must(name string, value float64, unit string, n int) {
	if err := r.Add(name, value, unit, n); err != nil {
		panic(err)
	}
}

// AddTiming records prefix_p50_<unit> and prefix_<tail>_<unit> for a
// distribution, where <tail> is the highest percentile with at least
// minBeyond samples above it. Nothing is recorded for an empty
// distribution.
func (r *Report) AddTiming(prefix, unit string, xs []float64) Timing {
	t := Summarize(xs)
	if t.N == 0 {
		return t
	}
	r.must(prefix+"_p50_"+unit, t.P50, unit, t.N)
	if t.TailName != "" {
		r.must(prefix+"_"+t.TailName+"_"+unit, t.Tail, unit, t.N)
	}
	return t
}

// Fail counts one failed operation and keeps its description for the log.
func (r *Report) Fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// Get returns a recorded metric.
func (r *Report) Get(name string) (Metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return Metric{}, false
	}
	return r.metrics[i], true
}

// WriteLog prints every metric as "name value unit (n=count)", one per
// line, followed by the failure notes.
func (r *Report) WriteLog(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  FAIL:", n)
	}
}

// resultMetric and result are the shape of the final output line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// Result builds the final output line from the declared metrics. A
// declared metric that was not measured, or a unit that differs from the
// declared one, is an error.
func (r *Report) Result(declared []Declared) ([]byte, error) {
	out := result{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted,
		Failed: r.Failed, Metrics: map[string]resultMetric{}}
	var missing []string
	for _, d := range declared {
		m, ok := r.Get(d.Name)
		switch {
		case !ok:
			missing = append(missing, d.Name)
			continue
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is not a number", d.Name)
		}
		out.Metrics[d.Name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("declared metrics not measured: %s", strings.Join(missing, ", "))
	}
	return json.Marshal(out)
}

// Declared is one metric as BENCHMARK.json declares it.
type Declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json this program reads.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Declared `json:"end_to_end"`
	PerLayer []Declared `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory, which is the
// checkout root the benchmark runs from.
func loadSpec() (*Spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, d := range append(append([]Declared(nil), s.EndToEnd...), s.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			return nil, fmt.Errorf("BENCHMARK.json: metric name %q is outside [A-Za-z0-9_.-]+", d.Name)
		}
	}
	return &s, nil
}
