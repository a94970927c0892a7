package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4), so
// the spread this report prints is the one that method gives. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread runs the benchmark once per seed on each workload and prints,
// for every metric, the median, quartiles, extremes and the interquartile
// range as a share of the median, next to the metric's bound.
func spread(args []string) int {
	fs := flag.NewFlagSet("perfbench spread", flag.ContinueOnError)
	var (
		runs  = fs.Int("runs", 10, "runs per workload, one seed each")
		seed0 = fs.Uint64("seed0", 1, "first seed; run i uses seed0+i")
		trace = fs.Int("trace", 0, "trace flag passed to every run")
		secs  = fs.Int("seconds", 0, "measuring time per run (0 = run_seconds from BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 {
		fmt.Fprintln(os.Stderr, "perfbench spread: need at least 2 runs")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	workloads := fs.Args()
	if len(workloads) == 0 {
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	seconds := *secs
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	status := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		failed := 0
		for i := 0; i < *runs; i++ {
			seed := *seed0 + uint64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(*trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench spread: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench spread: %s seed %d: result line: %v\n", w, seed, err)
				return 1
			}
			if !res.Correct {
				failed++
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", w, seed, res.Correct, res.Attempted, res.Failed)
		}
		fmt.Printf("\n%s: %d runs, %d not correct\n", w, *runs, failed)
		fmt.Printf("  %-26s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound")
		for _, d := range declared {
			vs := values[d.Name]
			if len(vs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			rel := 0.0
			if med != 0 {
				rel = (q3 - q1) / med
			}
			verdict := ""
			if d.Bound > 0 {
				verdict = "steady"
				if rel >= d.Bound/3 {
					verdict = "WIDE"
					if d.Name != "setup_s" {
						status = 1
					}
				}
			}
			fmt.Printf("  %-26s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f %s\n",
				d.Name, med, q1, q3, lo, hi, rel, d.Bound, verdict)
		}
		if failed > 0 {
			status = 1
		}
	}
	return status
}
