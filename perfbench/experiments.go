package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/expt"
)

// timingLine matches the per-experiment wall-clock line the CLI prints
// after each table; it is the only output that varies between runs.
var timingLine = regexp.MustCompile(`^  \(\d+(\.\d+)?s\)$`)

// cliRun is one launch of the experiments CLI.
type cliRun struct {
	setup    time.Duration // launch until the first experiment header
	usage    Usage
	digest   uint64 // FNV-64a of the output without timing lines
	pass     int
	fail     int
	problems []string
}

// cliDefaultSeed is the experiments CLI's default -seed, which the
// in-process traced run passes so it repeats the CLI's work.
const cliDefaultSeed = 42

// runCLI launches `experiments -quick`, every other flag at its default.
// With headerOnly it stops the process at the first experiment header,
// which is all a set-up measurement needs.
//
// A sample is the quick reproduction rather than the full one because
// this benchmark has to be steady on a shared 2-core machine whose speed
// swings up to 2x over a few seconds: three full runs (~9 s each) in a
// run gave medians 25% apart between runs, while ~18 quick runs (~1.7 s
// each, the same E1-E23 code paths on smaller sweeps) give a median that
// holds still.
func runCLI(binDir string, headerOnly bool) (*cliRun, error) {
	cmd := exec.Command(filepath.Join(binDir, "experiments"), "-quick")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	launched := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start experiments: %w", err)
	}
	r := &cliRun{}
	h := fnv.New64a()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if r.setup == 0 && strings.HasPrefix(line, "== ") {
			r.setup = time.Since(launched)
			if headerOnly {
				cmd.Process.Kill()
				io.Copy(io.Discard, stdout)
				cmd.Wait()
				return r, nil
			}
		}
		if timingLine.MatchString(line) {
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
		r.pass += strings.Count(line, "[PASS]")
		r.fail += strings.Count(line, "[FAIL]")
		if strings.Contains(line, "ERROR") {
			r.problems = append(r.problems, "output: "+line)
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	r.usage = usageOf(cmd.ProcessState, time.Since(launched))
	r.digest = h.Sum64()
	if scanErr != nil {
		r.problems = append(r.problems, "reading output: "+scanErr.Error())
	}
	if waitErr != nil {
		r.problems = append(r.problems, "exit: "+waitErr.Error())
	}
	if strings.Contains(stderr.String(), "ERROR") {
		r.problems = append(r.problems, "stderr: "+strings.TrimSpace(stderr.String()))
	}
	if r.setup == 0 {
		r.problems = append(r.problems, "no experiment header in the output")
		r.setup = r.usage.Wall
	}
	return r, nil
}

// cliSamples runs full CLI launches until starting another would likely
// end past the budget, and at least once. Runs are checked: exit 0, no
// ERROR, and the same table digest every time.
func cliSamples(binDir string, budget time.Duration, rep *Report) ([]*cliRun, error) {
	var (
		runs  []*cliRun
		spent time.Duration
	)
	for len(runs) == 0 || spent+spent/time.Duration(2*len(runs)) < budget {
		r, err := runCLI(binDir, false)
		if err != nil {
			return nil, err
		}
		rep.Attempted++
		if len(runs) > 0 && r.digest != runs[0].digest {
			r.problems = append(r.problems, fmt.Sprintf("table digest %016x differs from the first run's %016x", r.digest, runs[0].digest))
		}
		if len(r.problems) > 0 {
			rep.Fail("experiments: %s", strings.Join(r.problems, "; "))
		}
		runs = append(runs, r)
		spent += r.usage.Wall
	}
	fmt.Printf("  experiments: table digest %016x, %d PASS / %d FAIL verdicts, %d runs\n",
		runs[0].digest, runs[0].pass, runs[0].fail, len(runs))
	return runs, nil
}

// runExperiments is the untraced run of the experiments workload. The
// reproduction runs at the CLI's default seed, so its inputs are the
// CLI's own and the workload seed is not used: measured on 2 cores, the
// work of a run varies by about 12% between seeds, which would swamp the
// timing.
func runExperiments(binDir string, d time.Duration, rep *Report) error {
	launch := func() (time.Duration, error) {
		r, err := runCLI(binDir, true)
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	}
	before, err := setupProbes(setupLaunches/2, launch)
	if err != nil {
		return err
	}
	runs, err := cliSamples(binDir, d, rep)
	if err != nil {
		return err
	}
	after, err := setupProbes(setupLaunches/2, launch)
	if err != nil {
		return err
	}
	setups := append(before, after...)
	var walls, rss []float64
	var total time.Duration
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, ms(r.usage.Wall))
		rss = append(rss, r.usage.RSSMB)
		total += r.usage.Wall
	}
	t := Summarize(walls)
	rep.must("p50_ms", t.P50, "ms", t.N)
	rep.must("p90_ms", t.P90, "ms", t.N)
	rep.must("ops_per_s", float64(len(runs))/total.Seconds(), "1/s", t.N)
	rep.must("setup_s", Summarize(setups).P50, "s", len(setups))
	rep.must("rss_peak_mb", Summarize(rss).P50, "MiB", len(rss))
	rep.must("reproduce_s", t.P50/1000, "s", t.N)
	rep.must("fail_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "frac", rep.Attempted)
	return nil
}

// runExperimentsTraced spends half the time on CLI runs and then times
// each experiment in-process with the options the CLI run gets.
func runExperimentsTraced(binDir string, d time.Duration, rep *Report) error {
	runs, err := cliSamples(binDir, d/2, rep)
	if err != nil {
		return err
	}
	var walls []float64
	var cpu, wall time.Duration
	for _, r := range runs {
		walls = append(walls, ms(r.usage.Wall))
		cpu += r.usage.CPU
		wall += r.usage.Wall
	}
	base := Summarize(walls).P50 / 1000
	traced := timeExperiments(rep)
	rep.must("proc.cpu_ms", ms(cpu)/float64(len(runs)), "ms", len(runs))
	rep.must("runner.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac", len(runs))
	rep.must("trace_overhead_frac", (traced.Seconds()-base)/base, "frac", 1)
	return nil
}

// timeExperiments runs every experiment in-process with the options the
// CLI run gets, records each one's wall time, and returns their total.
func timeExperiments(rep *Report) time.Duration {
	var total time.Duration
	for _, e := range expt.All() {
		rep.Attempted++
		t0 := time.Now()
		err := e.Run(io.Discard, expt.Options{Quick: true, Seed: cliDefaultSeed})
		el := time.Since(t0)
		total += el
		if err != nil {
			rep.Fail("%s: %v", e.ID, err)
		}
		rep.must("expt."+e.ID+"_s", el.Seconds(), "s", 1)
	}
	return total
}
