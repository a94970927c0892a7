package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupLaunches is how many extra times a run launches the program only
// to time its set-up, half before the measured work and half after it, so
// they see the machine at two moments; the reported setup_s is the median
// of these and the measured launches.
const setupLaunches = 10

// setupProbes calls launch n times and returns the set-up times it
// reports, in seconds.
func setupProbes(n int, launch func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, err := launch()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// sweepdSetup launches sweepd untraced, stops it, and returns its set-up time.
func sweepdSetup(binDir string) (time.Duration, error) {
	s, err := StartSweepd(binDir, false)
	if err != nil {
		return 0, err
	}
	_, err = s.Stop()
	return s.Setup, err
}

// warmUp is the start of a stream whose requests are checked but not
// timed: the first requests of a fresh process pay for growing its pools.
const warmUp = time.Second

// serviceWorkload is a request stream driven against one sweepd.
type serviceWorkload struct {
	clients int
	stream  func(seed uint64) func() (Request, error)
	check   check
}

var serviceWorkloads = map[string]serviceWorkload{
	// One closed-loop client, every request a distinct Faster-Gathering
	// sweep: the round loop does almost all the work.
	"sweep-faster": {clients: 1, check: checkDetected,
		stream: func(seed uint64) func() (Request, error) { return NewFasterStream(seed).Next }},
	// Two closed-loop clients over a pool of capped sweeps, ~95% repeats
	// spelled differently: hits cost only the serve layer, misses are
	// dominated by graph build, certification and placement.
	"serve-mix": {clients: 2, check: checkRows,
		stream: func(seed uint64) func() (Request, error) { return NewMixStream(seed).Next }},
}

// streamRun is one sweepd process driven by one stream.
type streamRun struct {
	setup   time.Duration
	samples []Sample
	log     *KeyLog
	metrics Metrics
	usage   Usage
	window  time.Duration // from the end of warm-up to the last timed response
}

// timed returns the samples sent after warm-up, optionally only hits or
// only misses.
func (r *streamRun) timed(keep func(Sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if !s.Warm && s.OK && keep(s) {
			out = append(out, ms(s.Latency))
		}
	}
	return out
}

func all(Sample) bool      { return true }
func hits(s Sample) bool   { return s.Hit }
func misses(s Sample) bool { return !s.Hit }

// driveOnce launches sweepd, drives the workload's stream at it for d,
// reads /metrics and stops it.
func driveOnce(binDir string, wl serviceWorkload, seed uint64, d time.Duration, phases bool, rep *Report) (*streamRun, error) {
	s, err := StartSweepd(binDir, phases)
	if err != nil {
		return nil, err
	}
	r := &streamRun{setup: s.Setup, log: NewKeyLog()}
	start := time.Now()
	warmEnd := start.Add(warmUp)
	r.samples, err = Drive(s, wl.clients, wl.stream(seed), wl.check, r.log, warmEnd, start.Add(d), rep)
	if err == nil {
		r.metrics, err = s.Metrics()
	}
	if err != nil {
		s.Kill()
		return nil, err
	}
	if r.usage, err = s.Stop(); err != nil {
		return nil, err
	}
	for _, smp := range r.samples {
		if end := smp.Sent.Add(smp.Latency).Sub(warmEnd); !smp.Warm && end > r.window {
			r.window = end
		}
	}
	if r.window <= 0 {
		return nil, fmt.Errorf("no request completed after the %v warm-up", warmUp)
	}
	return r, nil
}

// runService is the untraced run of a service workload: set-up launches,
// then one stream for the whole measuring time.
func runService(binDir string, wl serviceWorkload, seed uint64, d time.Duration, rep *Report) error {
	launch := func() (time.Duration, error) { return sweepdSetup(binDir) }
	before, err := setupProbes(setupLaunches/2, launch)
	if err != nil {
		return err
	}
	r, err := driveOnce(binDir, wl, seed, d, false, rep)
	if err != nil {
		return err
	}
	after, err := setupProbes(setupLaunches/2, launch)
	if err != nil {
		return err
	}
	setups := append(append(before, after...), r.setup.Seconds())

	lat := r.timed(all)
	t := Summarize(lat)
	rep.must("p50_ms", t.P50, "ms", t.N)
	rep.must("p90_ms", t.P90, "ms", t.N)
	rep.must("ops_per_s", float64(t.N)/r.window.Seconds(), "1/s", t.N)
	rep.must("setup_s", Summarize(setups).P50, "s", len(setups))
	rep.must("rss_peak_mb", r.usage.RSSMB, "MiB", 1)

	// Per-workload names for the same run, split by the hit rule.
	rep.AddTiming("miss", "ms", r.timed(misses))
	rep.AddTiming("hit", "ms", r.timed(hits))
	rep.must("req_per_s", float64(t.N)/r.window.Seconds(), "1/s", t.N)
	var robotRounds float64
	executed := 0
	for _, s := range r.samples {
		if !s.Warm && s.OK && !s.Hit {
			robotRounds += float64(s.Resp.Agg.Rounds) * float64(s.Req.K)
			executed++
		}
	}
	rep.must("robot_rounds_per_s", robotRounds/r.window.Seconds(), "1/s", executed)
	rep.must("fail_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "frac", rep.Attempted)
	return nil
}

// runServiceTraced is the traced run: half the time on an untraced
// sweepd, half on one with phase timing on, then an in-process replay of
// the traced half's setup work. The untraced half gives the base for the
// trace overhead.
func runServiceTraced(binDir string, wl serviceWorkload, seed uint64, d time.Duration, rep *Report) error {
	plain, err := driveOnce(binDir, wl, seed, d/2, false, rep)
	if err != nil {
		return err
	}
	r, err := driveOnce(binDir, wl, seed, d/2, true, rep)
	if err != nil {
		return err
	}

	// Every distinct key executed once; replay its setup and total the
	// work its response reports.
	byKey := map[uint64]Request{}
	for _, s := range r.samples {
		byKey[s.Req.Key] = s.Req
	}
	var (
		setup                      SetupCost
		rounds, robotRounds, moves float64
	)
	for _, key := range r.log.Keys() {
		req := byKey[key]
		resp, err := parseNDJSON(r.log.Body(key))
		if err != nil {
			return err
		}
		rounds += float64(resp.Agg.Rounds)
		robotRounds += float64(resp.Agg.Rounds) * float64(req.K)
		moves += float64(resp.Agg.Moves)
		rep.Attempted++
		name, err := setup.Replay(req)
		switch {
		case err != nil:
			rep.Fail("replay: %v", err)
		case name != resp.Graph:
			rep.Fail("replayed graph %q, response header says %q", name, resp.Graph)
		}
	}
	setup.Report(rep)

	m := r.metrics
	phases := []struct {
		name string
		ns   int64
	}{{"observe", m.Phases.Observe}, {"communicate", m.Phases.Communicate},
		{"decide", m.Phases.Decide}, {"resolve", m.Phases.Resolve}, {"apply", m.Phases.Apply}}
	var phaseNS int64
	for _, p := range phases {
		rep.must("engine."+p.name+"_ms", float64(p.ns)/1e6, "ms", setup.Requests)
		phaseNS += p.ns
	}
	n := setup.Requests
	rep.must("engine.rounds", rounds, "count", n)
	rep.must("engine.robot_rounds", robotRounds, "count", n)
	rep.must("engine.moves", moves, "count", n)
	if robotRounds > 0 {
		rep.must("engine.ns_per_robot_round", float64(phaseNS)/robotRounds, "ns", n)
	}

	cpu := r.usage.CPU
	rep.must("proc.cpu_ms", ms(cpu), "ms", 1)
	rep.must("runner.cpu_util", cpu.Seconds()/(r.usage.Wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac", 1)
	attributed := time.Duration(phaseNS) + setup.Total()
	rep.must("unattributed_cpu_ms", ms(cpu-attributed), "ms", 1)

	var latency time.Duration
	for _, s := range r.samples {
		latency += s.Latency
	}
	rep.must("serve.cache_hits", float64(m.Cache.Hits), "count", 1)
	rep.must("serve.cache_misses", float64(m.Cache.Misses), "count", 1)
	rep.must("serve.cache_coalesced", float64(m.Cache.Coalesced), "count", 1)
	rep.must("serve.cache_evictions", float64(m.Cache.Evictions), "count", 1)
	rep.must("serve.queue_rejected", float64(m.Queue.Rejected), "count", 1)
	rep.must("serve.exec_ms", float64(m.ExecNS)/1e6, "ms", 1)
	rep.must("serve.overhead_ms", ms(latency)-float64(m.ExecNS)/1e6, "ms", len(r.samples))
	rep.must("serve.parse_us", parseMicros(r.samples, rep), "us", len(r.samples))

	// The headline is the latency of a request that executes: every
	// request of sweep-faster, the misses of serve-mix.
	base, traced := Summarize(plain.timed(misses)), Summarize(r.timed(misses))
	if base.N > 0 && traced.N > 0 {
		rep.must("trace_overhead_frac", (traced.P50-base.P50)/base.P50, "frac", traced.N)
	}
	fmt.Printf("  attribution: cpu %.1f ms = phases %.1f + setup replay %.1f + unattributed %.1f\n",
		ms(cpu), float64(phaseNS)/1e6, ms(setup.Total()), ms(cpu-attributed))
	return nil
}

// parseMicros times serve.ParseSweepRequest + Key over the bodies the
// stream sent and returns the mean per body in microseconds. A body that
// does not canonicalize to its pool key is a failure.
func parseMicros(samples []Sample, rep *Report) float64 {
	if len(samples) == 0 {
		return 0
	}
	keys := make([]uint64, len(samples))
	errs := make([]error, len(samples))
	t0 := time.Now()
	for i, s := range samples {
		keys[i], errs[i] = keyOf(s.Req.Body)
	}
	elapsed := time.Since(t0)
	for i, s := range samples {
		if errs[i] != nil || keys[i] != s.Req.Key {
			rep.Fail("body %q: key %016x (%v), want %016x", s.Req.Body, keys[i], errs[i], s.Req.Key)
		}
	}
	return float64(elapsed) / float64(time.Microsecond) / float64(len(samples))
}
