// Command experiments regenerates the paper-reproduction tables (DESIGN.md
// §4 maps every theorem and lemma to an experiment).
//
//	experiments              # run everything, full sweeps
//	experiments -quick       # smaller sweeps (seconds instead of minutes)
//	experiments -run E4,E8   # selected experiments only
//	experiments -list        # show the registry
//	experiments -parallel 8  # sweep worker-pool size (0 = all cores)
//
// Sweeps run on the internal/runner worker pool. Tables are bit-identical
// at every -parallel setting: each sweep point derives its randomness from
// (seed, submission index), never from scheduling order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/prof"
)

func main() {
	os.Exit(experiments())
}

// experiments is the real main, returning an exit code instead of calling
// os.Exit so the profiling teardown (StopCPUProfile, heap snapshot)
// always runs.
func experiments() int {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (empty = all)")
		quick    = flag.Bool("quick", false, "use reduced sweeps")
		seed     = flag.Uint64("seed", 42, "random seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		outDir   = flag.String("outdir", "", "also write each experiment's output to <outdir>/<ID>.txt")
		parallel = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer stopProf()

	var selected []expt.Experiment
	if *runIDs == "" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := expt.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				return 1
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}

	opts := expt.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel}
	failed := 0
	for _, e := range selected {
		fmt.Printf("\n== %s: %s ==\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
		start := time.Now()
		var sink io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			var err error
			file, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			fmt.Fprintf(file, "== %s: %s ==\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
			sink = io.MultiWriter(os.Stdout, file)
		}
		err := e.Run(sink, opts)
		if file != nil {
			file.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "  ERROR: %v\n", err)
			failed++
			continue
		}
		fmt.Printf("  (%.1fs)\n", time.Since(start).Seconds())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
