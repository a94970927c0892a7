// Package expt is the experiment harness: it regenerates, as measured
// tables, every bound the paper proves (the paper is theoretical and has
// no empirical tables of its own — DESIGN.md §4 maps each theorem/lemma to
// an experiment ID). Each experiment prints a table plus shape verdicts
// (fitted growth exponents, bound checks, who-wins factors) and is exposed
// both through cmd/experiments and as a root-level benchmark.
package expt

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/uxs"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps for CI and benchmarks; full runs take longer
	// and cover larger n.
	Quick bool
	// Seed drives every random choice, making runs reproducible.
	Seed uint64
	// Parallelism is the worker-pool size for scenario sweeps: 0 selects
	// GOMAXPROCS, 1 runs serially. Tables are bit-identical at every
	// setting — each sweep point derives its randomness from a seed
	// fixed by (Seed, submission index), never from scheduling order.
	Parallelism int
}

// sweep executes a batch of scenario jobs through the shared parallel
// runner and returns per-job results in submission order, surfacing the
// earliest job error. Every worker carries a gather.Arena, so jobs written
// against Job.BuildIn + the Scenario.New*WorldIn constructors reuse one
// long-lived world per worker instead of allocating a fresh engine per
// sweep point; jobs using plain Build are unaffected.
func sweep(o Options, base uint64, jobs []runner.Job) ([]runner.JobResult, error) {
	results, _ := sweepRunner(o).Run(base, jobs)
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return results, nil
}

// sweepRunner builds the experiment runner: o.Parallelism workers, each
// owning a pooled simulation state (a world arena plus an overlay pool).
func sweepRunner(o Options) *runner.Runner {
	return runner.New(o.Parallelism).WithWorkerState(func(int) any { return gather.NewSweepState() })
}

// checkCover checks that the exploration sequence robots derive from cfg
// and n covers g from every start node. T comes from n alone, as in the
// paper, so coverage is a property checked per instance, never an input:
// an uncovered instance stops its experiment with a *uxs.CoverError naming
// the graph, the start node and T. Each distinct graph is checked once,
// outside the jobs that share it.
func checkCover(g *graph.Graph, cfg gather.Config) error {
	n := g.N()
	return uxs.WithLength(n, cfg.UXSLength(n)).Check(g)
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // e.g. "E1"
	Title string
	Claim string // the paper statement being reproduced
	Run   func(w io.Writer, o Options) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// Numeric ordering of the full E1..E18 registry.
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table renders aligned ASCII tables for experiment output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{headers: headers} }

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(w, "   claim: %s\n\n", e.Claim)
}

// verdict prints a pass/fail line for a shape check.
func verdict(w io.Writer, ok bool, format string, args ...any) {
	tag := "PASS"
	if !ok {
		tag = "FAIL"
	}
	fmt.Fprintf(w, "  [%s] %s\n", tag, fmt.Sprintf(format, args...))
}
