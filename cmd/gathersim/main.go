// Command gathersim runs a single gathering scenario and prints the
// outcome. It is the quickest way to watch the paper's algorithms work.
// Topologies come from the workload catalog: any "name:params" spec from
// `gathersim -list` works, including the legacy family names:
//
//	gathersim -workload cycle:12 -k 7 -algo faster -seed 1
//	gathersim -workload torus:8x8 -k 2 -algo uxs -trace 500
//	gathersim -workload maze:6x6,4 -k 5 -algo undispersed -placement clustered
//	gathersim -family cycle -n 12 -k 7           # same as -workload cycle:12
//
// With -seeds N it runs a seed sweep through the sweep service's executor
// (serve.Execute), so it takes the service's request limits too (at most
// 2^16 seeds, k <= 2^20): ONE frozen graph is built from -seed and
// shared, read-only, by all N jobs on the internal/runner worker pool
// (-parallel caps the pool; 0 = all cores); each seed draws its own IDs,
// placement and scheduler. Each worker owns a pooled simulation arena, so
// after its first job it rewinds one long-lived world via Reset instead
// of rebuilding the engine. One summary row prints per seed plus
// aggregate stats; rows are bit-identical at every -parallel setting
// (pooled or not), and no job constructs a graph. -ndjson prints the
// same sweep as the service's NDJSON response.
//
//	gathersim -workload cycle:12 -k 7 -seeds 32 -parallel 8
//
// The -sched flag swaps the activation scheduler: the paper's fully
// synchronous model (full, default), a seeded semi-synchronous scheduler
// (semi:P activates each robot with probability P per round), or a fair
// deterministic adversary (adv[:L]) that splits co-located groups and
// holds back the lagging robot for up to L consecutive rounds.
//
//	gathersim -workload cycle:12 -k 7 -sched semi:0.5
//	gathersim -workload grid:4x4 -k 4 -sched adv:3 -max-rounds 100000
//
// `gathersim -list` prints the full catalog: workloads with their
// parameter syntax, algorithms, schedulers and placements.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/fault"
)

func main() {
	os.Exit(gathersim())
}

// gathersim is the real main, returning an exit code instead of calling
// os.Exit so the profiling teardown (StopCPUProfile, heap snapshot) always
// runs.
func gathersim() int {
	var (
		workload  = flag.String("workload", "", "workload spec from the catalog, e.g. cycle:12, torus:8x8, rreg:64,3 (overrides -family/-n; see -list)")
		family    = flag.String("family", "cycle", "legacy graph family (path|cycle|grid|tree|random|complete|lollipop|star|hypercube); with -n, shorthand for -workload family:n (note: the hypercube workload takes a DIMENSION — hypercube:20 is 2^20 nodes)")
		n         = flag.Int("n", 12, "number of nodes (approximate for some families)")
		k         = flag.Int("k", 4, "number of robots")
		algo      = flag.String("algo", "faster", "algorithm: faster|uxs|undispersed|hopmeet|dessmark|beep (beep needs k<=2)")
		radius    = flag.Int("radius", 2, "radius for -algo hopmeet")
		placement = flag.String("placement", "maxmin", "placement: maxmin|random|dispersed|clustered")
		sched     = flag.String("sched", "full", "activation scheduler: full | semi:P (activation probability) | adv[:L] (fair adversary, lag bound L)")
		faults    = flag.String("faults", "none", "fault adversary: none | crash:F[@R] | recover:F,D[@R] | byz:F (see -list)")
		churn     = flag.Float64("churn", 0, "per-round edge-churn probability in [0,1]: a seeded adversary toggles non-bridge edges, preserving connectivity (0 = static graph)")
		seed      = flag.Uint64("seed", 1, "random seed (drives graph, ports, IDs, placement)")
		seeds     = flag.Int("seeds", 1, "run this many consecutive seeds as a parallel sweep on one shared graph (at most 65536)")
		parallel  = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = serial); a sweep uses at most one worker per 8 seeds")
		ndjson    = flag.Bool("ndjson", false, "emit the seed sweep as NDJSON rows through the sweep-service executor — byte-identical to a sweepd response for the same tuple")
		phases    = flag.Bool("phases", false, "measure per-phase engine time (observe/communicate/decide/resolve/apply) and print the totals")
		maxRounds = flag.Int("max-rounds", 0, "round cap (0 = algorithm-derived bound)")
		trace     = flag.Int("trace", 0, "log positions every N rounds (0 = off)")
		dotFile   = flag.String("dot", "", "write the scenario graph (with start positions) as Graphviz DOT to this file")
		times     = flag.Bool("times", true, "print per-run and aggregate wall times (disable for diffable output)")
		list      = flag.Bool("list", false, "print the workload/algorithm/scheduler/placement catalog and exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		printCatalog()
		return 0
	}

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		return 1
	}
	defer stopProf()

	if _, err := sim.ParseScheduler(*sched, 0); err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		return 1
	}
	fs, err := fault.Parse(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		return 1
	}
	if *churn < 0 || *churn > 1 {
		fmt.Fprintf(os.Stderr, "gathersim: -churn %g out of range (want 0 <= churn <= 1)\n", *churn)
		return 1
	}

	spec := *workload
	if spec == "" {
		spec = fmt.Sprintf("%s:%d", *family, *n)
	}
	wl, err := graph.ParseWorkload(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		return 1
	}

	prof.EnablePhases(*phases)

	switch {
	case *ndjson || *seeds > 1:
		if *trace > 0 || *dotFile != "" {
			fmt.Fprintln(os.Stderr, "gathersim: -trace and -dot apply to single runs only; ignored in -seeds and -ndjson modes")
		}
		err = runSweep(serve.SweepRequest{
			Workload:  spec,
			Algo:      *algo,
			K:         *k,
			Radius:    *radius,
			Placement: *placement,
			Sched:     *sched,
			Seed:      *seed,
			Seeds:     *seeds,
			MaxRounds: *maxRounds,
			Faults:    *faults,
			Churn:     *churn,
		}, wl, fs, *parallel, *ndjson, *times)
	default:
		err = run(wl, *algo, *placement, *sched, *dotFile, fs, *churn, *k, *radius, *seed, *maxRounds, *trace)
	}
	if err == nil && *phases {
		printPhases()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		return 1
	}
	return 0
}

// printCatalog renders the discoverability listing: every workload with
// its parameter syntax, plus the algorithm, scheduler and placement
// grammars the other flags accept.
func printCatalog() {
	fmt.Println("workloads (-workload name:params):")
	for _, e := range graph.Catalog() {
		fmt.Printf("  %-12s %-48s %s\n", e.Name, e.Syntax, e.Summary)
	}
	fmt.Println("\nalgorithms (-algo):")
	for _, a := range [][2]string{
		{"faster", "Faster-Gathering (Theorems 12/16): staged hop-meeting + collection"},
		{"uxs", "UXS gathering with detection (Theorem 6)"},
		{"undispersed", "Undispersed-Gathering (Theorem 8); needs an undispersed start"},
		{"hopmeet", "standalone i-Hop-Meeting (Lemmas 9-10); radius from -radius"},
		{"dessmark", "Dessmark et al. iterated-deepening baseline"},
		{"beep", "beeping-model gathering (two robots max)"},
	} {
		fmt.Printf("  %-12s %s\n", a[0], a[1])
	}
	fmt.Println("\nschedulers (-sched):")
	for _, s := range sim.SchedulerGrammar() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nfault adversaries (-faults; -churn R adds seeded connectivity-preserving edge churn):")
	for _, s := range fault.Grammar() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nplacements (-placement):")
	for _, p := range [][2]string{
		{"maxmin", "adversarial max-min dispersion (Lemma 15 witness)"},
		{"random", "uniform random nodes (repeats allowed)"},
		{"dispersed", "distinct random nodes"},
		{"clustered", "k robots in about k/2 co-located groups"},
	} {
		fmt.Printf("  %-12s %s\n", p[0], p[1])
	}
}

// The scenario-building core — placement engines, scheduler derivation,
// the diameter size bound — lives in internal/serve, shared verbatim with
// the sweepd service so the two paths cannot drift; worlds and their
// round caps come from gather.Scenario.World on both paths.

// diameterLabel formats the graph's diameter, or "n/a" when the instance
// is too large for the all-pairs BFS.
func diameterLabel(g *graph.Graph) string {
	d, ok := serve.Diameter(g)
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%d", d)
}

// buildScenario instantiates the requested scenario shape from one seed:
// the workload's graph, then IDs and placement, all from one stream.
func buildScenario(wl *graph.Workload, placement string, k int, seed uint64) (*gather.Scenario, error) {
	rng := graph.NewRNG(seed)
	g, err := wl.Build(rng)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("need at least one robot")
	}
	pos, err := serve.PlaceRobots(g, placement, k, rng)
	if err != nil {
		return nil, err
	}
	return &gather.Scenario{G: g, IDs: gather.AssignIDs(k, g.N(), rng), Positions: pos}, nil
}

func run(wl *graph.Workload, algo, placement, sched, dotFile string, fs fault.Spec, churn float64, k, radius int, seed uint64, maxRounds, trace int) error {
	sc, err := buildScenario(wl, placement, k, seed)
	if err != nil {
		return err
	}
	if sc.Sched, err = serve.BuildSched(sched, seed); err != nil {
		return err
	}
	n := sc.G.N()

	fmt.Printf("graph: %s (workload %s, diameter %s)\n", sc.G, wl, diameterLabel(sc.G))
	fmt.Printf("robots: k=%d IDs=%v positions=%v (min pairwise distance %d)\n",
		k, sc.IDs, sc.Positions, sc.MinPairDistance())
	fmt.Printf("schedule: R1=%d R=%d T=%d B=%d scheduler=%s\n",
		gather.R1(n), gather.R(n), sc.Cfg.UXSLength(n), gather.BitBudget(n), sc.Sched)
	if fs.Kind != fault.None || churn > 0 {
		fmt.Printf("adversary: faults=%s churn=%g\n", fs, churn)
	}

	if dotFile != "" {
		byNode := map[int][]int{}
		for i, p := range sc.Positions {
			byNode[p] = append(byNode[p], sc.IDs[i])
		}
		f, err := os.Create(dotFile)
		if err != nil {
			return err
		}
		if err := sc.G.WriteDOT(f, byNode); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("scenario graph written to %s\n", dotFile)
	}

	w, cap, err := sc.World(nil, algo, radius)
	if err != nil {
		return err
	}
	if maxRounds > 0 {
		cap = maxRounds
	}
	// Faults and churn derive their streams through the same salts every
	// surface uses, so this single run replays any sweep row exactly.
	if err := fault.Apply(w, sc.IDs, fs.Plan(k, cap, seed^gather.FaultSeedSalt)); err != nil {
		return err
	}
	if churn > 0 {
		if err := w.SetOverlay(graph.NewOverlay(sc.G, churn, seed^gather.ChurnSeedSalt)); err != nil {
			return err
		}
	}
	if trace > 0 {
		w.SetTracer(&sim.PositionLogger{W: os.Stdout, Every: trace})
	}
	// SafeRun: outside the fully-synchronous model (-sched semi/adv) the
	// paper's algorithms may violate their own invariants, and that
	// outcome should read as a failed run, not a process crash.
	res, err := w.SafeRun(cap)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// runSweep runs the seed sweep through the sweep-service executor. The
// request is serialized and parsed by the SAME decoder the service uses,
// so validation, defaults, limits and execution are the service's own.
// With ndjson it prints the service's response body — byte-identical to a
// sweepd response for the same tuple, which the CI conformance gate
// diffs — and otherwise a per-seed summary table rendered from the same
// results.
func runSweep(sr serve.SweepRequest, wl *graph.Workload, fs fault.Spec, parallel int, ndjson, times bool) error {
	raw, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	req, err := serve.ParseSweepRequest(raw)
	if err != nil {
		return err
	}
	cfg := serve.ExecConfig{Parallel: parallel}
	if ndjson {
		body, err := serve.ExecuteNDJSON(context.Background(), req, cfg)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(body)
		return err
	}
	g, results, st, err := serve.Execute(context.Background(), req, cfg)
	if err != nil {
		return err
	}

	base := req.Seed
	fmt.Printf("batch: %d seeds (%d..%d), algo %s, workload %s, sched %s, k=%d\n",
		req.Seeds, base, base+uint64(req.Seeds)-1, req.Algo, wl, req.Sched, req.K)
	if fs.Kind != fault.None || req.Churn > 0 {
		fmt.Printf("adversary: faults=%s churn=%g\n", fs, req.Churn)
	}
	fmt.Printf("shared graph: %s (diameter %s), built once from seed %d",
		g, diameterLabel(g), base)
	if times {
		// Worker count and wall times vary with -parallel; keep them out
		// of -times=false output so it diffs clean at any pool size.
		fmt.Printf(", %d workers", st.Workers)
	}
	fmt.Print("\n\n")

	fmt.Printf("%8s %8s %6s %8s %10s", "seed", "rounds", "gather", "detect", "moves")
	if times {
		fmt.Printf(" %8s", "time")
	}
	fmt.Println()
	detected, crashed := 0, 0
	firstStack := ""
	for _, res := range results {
		if res.Err != nil {
			// A contained panic (algorithm run outside its model) is a
			// per-seed outcome; serve.Execute fails the sweep on any other
			// error. The one-line message is deterministic, so the table
			// stays diffable across -parallel settings.
			crashed++
			if firstStack == "" {
				firstStack = res.Stack
			}
			fmt.Printf("%8d %8s %6s %8s %10s  %v\n", res.Meta.(uint64), "-", "-", "crash", "-", res.Err)
			continue
		}
		if res.Res.DetectionCorrect {
			detected++
		}
		fmt.Printf("%8d %8d %6v %8v %10d", res.Meta.(uint64), res.Res.Rounds,
			res.Res.Gathered, res.Res.DetectionCorrect, res.Res.TotalMoves)
		if times {
			fmt.Printf(" %8s", res.Elapsed.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("\naggregate: %d/%d detection-correct, %d crashed, %d total rounds, %d total moves\n",
		detected, st.Jobs, crashed, st.Rounds, st.Moves)
	if firstStack != "" {
		// Stacks go to stderr (stdout stays deterministic and diffable);
		// one is enough to locate a genuine engine regression.
		fmt.Fprintf(os.Stderr, "gathersim: first crash stack:\n%s", firstStack)
	}
	if times {
		fmt.Printf("wall %s, summed job time %s on %d workers\n",
			st.Wall.Round(time.Millisecond), st.Work.Round(time.Millisecond), st.Workers)
	}
	return nil
}

// printPhases renders the engine's accumulated per-phase wall time (the
// -phases flag). Timings are measurement, not results: they vary run to
// run, which is why the flag is off for the diffable determinism checks.
func printPhases() {
	totals := prof.PhaseTotals()
	var sum time.Duration
	for _, d := range totals {
		sum += d
	}
	fmt.Printf("\nengine phases (%s total):\n", sum.Round(time.Microsecond))
	for p, d := range totals {
		pct := 0.0
		if sum > 0 {
			pct = 100 * float64(d) / float64(sum)
		}
		fmt.Printf("  %-12s %10s  %5.1f%%\n", prof.Phase(p), d.Round(time.Microsecond), pct)
	}
}

func printResult(res sim.Result) {
	fmt.Printf("\nresult:\n")
	fmt.Printf("  rounds:            %d\n", res.Rounds)
	fmt.Printf("  terminated:        %v\n", res.AllTerminated)
	fmt.Printf("  gathered:          %v\n", res.Gathered)
	fmt.Printf("  detection correct: %v\n", res.DetectionCorrect)
	fmt.Printf("  first meet round:  %d\n", res.FirstMeetRound)
	fmt.Printf("  first gather:      %d\n", res.FirstGatherRound)
	fmt.Printf("  total moves:       %d (max per robot %d)\n", res.TotalMoves, res.MaxMoves)
	fmt.Printf("  crashed/recovered: %d/%d\n", res.Crashed, res.Recovered)
	fmt.Printf("  final positions:   %v\n", res.FinalPositions)
}
