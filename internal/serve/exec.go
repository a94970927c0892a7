package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sim/fault"
)

// ExecConfig sets the execution resources for one sweep. Parallel is
// output-invariant: the runner's determinism contract (per-job seeds from
// submission index) means response bytes are identical at every setting —
// the CLI determinism gates, replayed through the service path by the
// conformance suite.
type ExecConfig struct {
	Parallel int // worker-pool size; 0 selects GOMAXPROCS
}

// seedsPerWorker is how many seeds a sweep hands each worker before it
// takes another: a sweep runs on min(Parallel, ⌈seeds/seedsPerWorker⌉)
// workers. A small sweep then holds one CPU and leaves the rest to the
// requests the cache answers. On a 2-vCPU host, perfbench serve-mix
// (8-seed misses among ~95% hits) had a p90 of 0.27–0.30 ms with the
// rule and 0.72–0.84 ms without it, in 4 of 4 interleaved 15 s pairs.
const seedsPerWorker = 8

// sweepWorkers is the worker count of a sweep over seeds rows on a pool
// of parallel workers (0 = GOMAXPROCS).
func sweepWorkers(parallel, seeds int) int {
	return min(runner.New(parallel).Workers(), (seeds+seedsPerWorker-1)/seedsPerWorker)
}

// Row shapes. Field order is the wire order (encoding/json preserves
// struct order), part of the byte-identity contract with gathersim
// -ndjson; do not reorder.

// headerRow opens every response: the canonical request that produced it
// (so a saved response is replayable) and the shared instance it ran on.
// Diameter is null above CertifyMaxNodes, where the all-pairs BFS is
// infeasible.
type headerRow struct {
	Spec     json.RawMessage `json:"spec"`
	Graph    string          `json:"graph"`
	Diameter *int            `json:"diameter"`
}

// seedRow is one seed's outcome — the NDJSON form of the CLI sweep
// table's seed/rounds/gather/detect/moves columns.
type seedRow struct {
	Seed   uint64 `json:"seed"`
	Rounds int    `json:"rounds"`
	Gather bool   `json:"gather"`
	Detect bool   `json:"detect"`
	Moves  int64  `json:"moves"`
}

// crashRow replaces a seedRow when the algorithm legitimately panicked
// outside its model (e.g. under an adversarial scheduler). The one-line
// message is deterministic, so crash rows diff clean across runs; stacks
// never enter the response.
type crashRow struct {
	Seed  uint64 `json:"seed"`
	Crash string `json:"crash"`
}

// aggregateRow closes every response with the sweep totals the CLI's
// aggregate line reports.
type aggregateRow struct {
	Aggregate bool  `json:"aggregate"`
	Seeds     int   `json:"seeds"`
	Detected  int   `json:"detected"`
	Crashed   int   `json:"crashed"`
	Rounds    int64 `json:"rounds"`
	Moves     int64 `json:"moves"`
}

// Execute runs the request's seed sweep and returns the shared instance
// graph, one result per seed in seed order, and the sweep's totals. The
// sweep shape is ONE frozen graph built from the base seed and shared
// read-only by every job; each job draws its own IDs, placement and
// scheduler from its row seed on a pooled per-worker arena. Both
// renderings of a sweep — ExecuteNDJSON's rows and gathersim's text
// table — come from this one function.
//
// A canceled ctx stops the sweep between jobs (runner.RunCtx) and
// surfaces as ctx's error with no results. Errors other than contained
// per-seed crashes (a panic, recognizable by its captured stack) fail the
// whole sweep: they are configuration or engine failures.
func Execute(ctx context.Context, req *SweepRequest, cfg ExecConfig) (*graph.Graph, []runner.JobResult, runner.Stats, error) {
	g, err := req.wl.Build(graph.NewRNG(req.Seed))
	if err != nil {
		return nil, nil, runner.Stats{}, err
	}

	// Churn is per-instance: one overlay seed for the whole request, so
	// every row sees the same edge weather from its worker's pooled
	// overlay.
	ovSeed := req.Seed ^ gather.ChurnSeedSalt
	jobs := make([]runner.Job, req.Seeds)
	for i := range jobs {
		scSeed := req.Seed + uint64(i)
		jobs[i] = runner.Job{Meta: scSeed,
			Build: func(_ uint64, a *gather.Arena) (*sim.World, int, error) {
				// IDs, placement and scheduler all come from the row seed;
				// the frozen graph is shared.
				sc, err := RowScenario(g, req.Placement, req.K, req.Sched, scSeed)
				if err != nil {
					return nil, 0, err
				}
				w, cap, err := sc.World(a, req.Algo, req.Radius)
				if err != nil {
					return nil, 0, err
				}
				if req.MaxRounds > 0 {
					cap = req.MaxRounds
				}
				// The fault plan is per-run (row seed), drawn over the
				// effective round budget so scheduled crashes fire in-run.
				plan := req.fs.Plan(req.K, cap, scSeed^gather.FaultSeedSalt)
				if err := fault.Apply(w, sc.IDs, plan); err != nil {
					return nil, 0, err
				}
				if req.Churn > 0 {
					if err := w.SetOverlay(a.Overlay(g, req.Churn, ovSeed)); err != nil {
						return nil, 0, err
					}
				}
				return w, cap, nil
			}}
	}

	results, st := runner.New(sweepWorkers(cfg.Parallel, req.Seeds)).RunCtx(ctx, req.Seed, jobs)
	if err := ctx.Err(); err != nil {
		return nil, nil, runner.Stats{}, err
	}
	for _, res := range results {
		if res.Err != nil && res.Stack == "" {
			return nil, nil, runner.Stats{}, fmt.Errorf("seed %d: %w", res.Meta.(uint64), res.Err)
		}
	}
	return g, results, st, nil
}

// ExecuteNDJSON runs the request's seed sweep (Execute) and returns the
// complete NDJSON response body: one header row, one row per seed in seed
// order, one aggregate row (RenderNDJSON). gathersim -ndjson runs the
// same two calls, which is what makes service and CLI output
// byte-identical by construction — and the conformance suite pins it by
// diff, not by trust.
//
// The body is materialized before it is returned: a response either
// exists in full or not at all, so cached replays are byte-identical and
// a client never sees a truncated stream. Contained per-seed crashes
// render as crash rows; every other error fails the whole request,
// exactly like the CLI.
func ExecuteNDJSON(ctx context.Context, req *SweepRequest, cfg ExecConfig) ([]byte, error) {
	g, results, st, err := Execute(ctx, req, cfg)
	if err != nil {
		return nil, err
	}
	return RenderNDJSON(req, g, results, st)
}

// RenderNDJSON assembles the response body from a finished sweep, as
// ExecuteNDJSON does after Execute.
func RenderNDJSON(req *SweepRequest, g *graph.Graph, results []runner.JobResult, st runner.Stats) ([]byte, error) {
	var buf bytes.Buffer
	head := headerRow{Spec: req.Canonical(), Graph: g.String()}
	if d, ok := Diameter(g); ok {
		head.Diameter = &d
	}
	if err := writeRow(&buf, head); err != nil {
		return nil, err
	}
	detected, crashed := 0, 0
	for _, res := range results {
		seed := res.Meta.(uint64)
		if res.Err != nil {
			crashed++
			if err := writeRow(&buf, crashRow{Seed: seed, Crash: res.Err.Error()}); err != nil {
				return nil, err
			}
			continue
		}
		if res.Res.DetectionCorrect {
			detected++
		}
		row := seedRow{Seed: seed, Rounds: res.Res.Rounds,
			Gather: res.Res.Gathered, Detect: res.Res.DetectionCorrect, Moves: res.Res.TotalMoves}
		if err := writeRow(&buf, row); err != nil {
			return nil, err
		}
	}
	agg := aggregateRow{Aggregate: true, Seeds: st.Jobs, Detected: detected,
		Crashed: crashed, Rounds: st.Rounds, Moves: st.Moves}
	if err := writeRow(&buf, agg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRow appends one NDJSON line.
func writeRow(buf *bytes.Buffer, row any) error {
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	buf.Write(b)
	buf.WriteByte('\n')
	return nil
}
