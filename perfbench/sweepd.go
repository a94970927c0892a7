package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a launched sweepd may take to answer
// /healthz before the run is abandoned.
const readyTimeout = 20 * time.Second

// Sweepd is one running sweepd process and a client for it.
type Sweepd struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	launched time.Time
	Setup    time.Duration // launch until the first /healthz 200
	exited   chan struct{}
	waitErr  error
}

// Usage is what the operating system reports for an exited child.
type Usage struct {
	CPU   time.Duration // user + system
	RSSMB float64       // peak resident set (VmHWM), MiB
	Wall  time.Duration // launch to exit
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartSweepd launches sweepd with default flags apart from the listen
// address and, when phases is false, -phases=false. It returns once
// /healthz answers 200.
func StartSweepd(binDir string, phases bool) (*Sweepd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if !phases {
		args = append(args, "-phases=false")
	}
	s := &Sweepd{
		cmd:  exec.Command(filepath.Join(binDir, "sweepd"), args...),
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	s.cmd.Stderr = os.Stderr
	s.launched = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	go func() { s.waitErr = s.cmd.Wait(); close(s.exited) }()
	deadline := s.launched.Add(readyTimeout)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(s.launched)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("sweepd exited before it was ready: %v", s.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			s.Kill()
			return nil, fmt.Errorf("sweepd not ready after %v", readyTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Post sends one sweep request and returns the status and body.
func (s *Sweepd) Post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// Metrics is the part of the /metrics wire format the benchmark reads.
type Metrics struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Queue struct {
		Rejected int64 `json:"rejected"`
	} `json:"queue"`
	ExecNS int64 `json:"exec_ns"`
	Phases struct {
		Observe     int64 `json:"observe_ns"`
		Communicate int64 `json:"communicate_ns"`
		Decide      int64 `json:"decide_ns"`
		Resolve     int64 `json:"resolve_ns"`
		Apply       int64 `json:"apply_ns"`
	} `json:"phases"`
}

// Metrics reads GET /metrics.
func (s *Sweepd) Metrics() (Metrics, error) {
	var m Metrics
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// Stop asks sweepd to drain and exit, waits for it, and returns its usage.
// A sweepd that does not exit in time is killed and reported as an error.
func (s *Sweepd) Stop() (Usage, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return Usage{}, fmt.Errorf("signal sweepd: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.Kill()
		return Usage{}, errors.New("sweepd did not stop within 30s of SIGTERM")
	}
	if s.waitErr != nil {
		return Usage{}, fmt.Errorf("sweepd: %w", s.waitErr)
	}
	return usageOf(s.cmd.ProcessState, time.Since(s.launched)), nil
}

// Kill ends sweepd at once and waits for it; for error paths.
func (s *Sweepd) Kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// usageOf extracts CPU time and peak RSS from an exited process.
func usageOf(ps *os.ProcessState, wall time.Duration) Usage {
	u := Usage{CPU: ps.UserTime() + ps.SystemTime(), Wall: wall}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// ndjson is the response shape the checks read: the header's graph, the
// number of per-seed rows, and the aggregate row.
type ndjson struct {
	Graph string
	Rows  int
	Agg   struct {
		Seeds    int   `json:"seeds"`
		Detected int   `json:"detected"`
		Crashed  int   `json:"crashed"`
		Rounds   int64 `json:"rounds"`
		Moves    int64 `json:"moves"`
	}
}

// parseNDJSON splits a sweep response into header, seed rows and aggregate.
func parseNDJSON(body []byte) (ndjson, error) {
	var out ndjson
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return out, fmt.Errorf("response has %d lines, want header, rows and aggregate", len(lines))
	}
	var head struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Graph == "" {
		return out, fmt.Errorf("bad header row %q", lines[0])
	}
	out.Graph = head.Graph
	last := lines[len(lines)-1]
	if !bytes.Contains(last, []byte(`"aggregate":true`)) {
		return out, fmt.Errorf("last row is not the aggregate: %q", last)
	}
	if err := json.Unmarshal(last, &out.Agg); err != nil {
		return out, fmt.Errorf("bad aggregate row: %w", err)
	}
	out.Rows = len(lines) - 2
	return out, nil
}

// Sample is one completed request as a client saw it.
type Sample struct {
	Req     Request
	Latency time.Duration
	Sent    time.Time
	Hit     bool // a response for the key had arrived before this was sent
	Warm    bool // sent during warm-up; checked but not timed
	OK      bool
	Resp    ndjson
}

// check validates one response; it returns "" when the response is
// correct for the workload.
type check func(s *Sample, status int, body []byte, log *KeyLog) string

// checkRows is the check every sweep workload runs: status 200, a
// well-formed body with one row per seed, and a body byte-identical to
// the first one received for the same key.
func checkRows(s *Sample, status int, body []byte, log *KeyLog) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", status, body)
	}
	r, err := parseNDJSON(body)
	if err != nil {
		return err.Error()
	}
	s.Resp = r
	if r.Rows != s.Req.Seeds || r.Agg.Seeds != s.Req.Seeds {
		return fmt.Sprintf("%d rows, aggregate seeds %d, want %d", r.Rows, r.Agg.Seeds, s.Req.Seeds)
	}
	if !log.Done(s.Req.Key, body) {
		return fmt.Sprintf("body for key %016x differs from its first response", s.Req.Key)
	}
	return ""
}

// checkDetected adds the paper's guarantee under FullSync: every seed
// detects gathering and none crashes.
func checkDetected(s *Sample, status int, body []byte, log *KeyLog) string {
	if msg := checkRows(s, status, body, log); msg != "" {
		return msg
	}
	if s.Resp.Agg.Detected != s.Req.Seeds || s.Resp.Agg.Crashed != 0 {
		return fmt.Sprintf("%s seed %d: detected %d of %d, crashed %d",
			s.Req.Workload, s.Req.Seed, s.Resp.Agg.Detected, s.Req.Seeds, s.Resp.Agg.Crashed)
	}
	return ""
}

// Drive runs closed-loop clients against sweepd until the deadline: each
// client sends its next request only after the previous response arrived.
// Clients draw from one shared stream, so the sequence of requests is a
// function of the seed whatever the interleaving. Requests sent before
// warmEnd are checked but flagged as warm-up.
func Drive(s *Sweepd, clients int, next func() (Request, error), chk check, log *KeyLog,
	warmEnd, deadline time.Time, rep *Report) ([]Sample, error) {
	var (
		mu      sync.Mutex
		samples []Sample
		genErr  error
		wg      sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if genErr != nil || !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				req, err := next()
				if err != nil {
					genErr = err
					mu.Unlock()
					return
				}
				mu.Unlock()
				smp := Sample{Req: req, Hit: log.Sent(req.Key), Sent: time.Now()}
				smp.Warm = smp.Sent.Before(warmEnd)
				status, body, err := s.Post(req.Body)
				smp.Latency = time.Since(smp.Sent)
				msg := ""
				if err != nil {
					msg = err.Error()
				} else {
					msg = chk(&smp, status, body, log)
				}
				mu.Lock()
				rep.Attempted++
				if msg != "" {
					rep.Fail("%s", msg)
				} else {
					smp.OK = true
				}
				samples = append(samples, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, genErr
}
