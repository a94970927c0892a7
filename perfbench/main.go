// Command perfbench is the repository's end-to-end benchmark. It drives
// the shipped front doors — a sweepd process over its HTTP wire format,
// and the experiments CLI — with load generated from a workload seed,
// checks every output, and prints each metric by name, unit and sample
// count, ending with one JSON result line. A traced run (-trace 1)
// attributes the time to the layers instead. See README.md.
//
// From the repository root, after building sweepd and experiments into
// binDir (run.sh does both):
//
//	perfbench --workload sweep-faster --seed 1 --seconds 30 --trace 0
//	perfbench spread -runs 10 sweep-faster serve-mix experiments
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// binDir is where run.sh puts the sweepd and experiments binaries,
// relative to the repository root the benchmark runs from.
const binDir = ".bench_build/bin"

// probeTime is how long the experiments workload's traced run drives its
// serve-mix probe.
const probeTime = 4 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "spread" {
		return spread(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name from BENCHMARK.json")
		seed     = fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = fs.Int("seconds", 0, "measuring time in seconds (0 = run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bench(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs one workload and prints its log and result line.
func bench(workload string, seed uint64, seconds, trace int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", workload, spec.Workloads)
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	d := time.Duration(seconds) * time.Second
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)

	rep := NewReport()
	switch wl, isService := serviceWorkloads[workload]; {
	case isService && trace == 0:
		err = runService(binDir, wl, seed, d, rep)
	case isService:
		// The sweeps never reach the expt layer; an in-process quick pass
		// times it, so every per-layer metric is measured on every workload.
		if err = runServiceTraced(binDir, wl, seed, d, rep); err == nil {
			timeExperiments(rep)
		}
	case workload == "experiments" && trace == 0:
		err = runExperiments(binDir, d, rep)
	case workload == "experiments":
		// The reproduction never reaches sweepd; a short serve-mix probe
		// times the sweep layers first, and the experiments trace then
		// replaces the values both report (proc, runner, trace overhead).
		if err = runServiceTraced(binDir, serviceWorkloads["serve-mix"], seed, probeTime, rep); err == nil {
			err = runExperimentsTraced(binDir, d-probeTime, rep)
		}
	default:
		err = fmt.Errorf("workload %q is not implemented", workload)
	}
	if err != nil {
		return err
	}

	rep.WriteLog(os.Stdout)
	declared := spec.EndToEnd
	if trace == 1 {
		declared = spec.PerLayer
	}
	line, err := rep.Result(declared)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
