package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

const fastSweep = `{"workload":"cycle:12","algo":"faster","k":4,"seeds":8}`

// TestServeBackpressure pins the shed contract: with the execution queue
// full, an uncached request gets a complete 429 — Retry-After header set,
// well-formed JSON error body, never a truncated or half-written stream —
// and the rejection is counted.
func TestServeBackpressure(t *testing.T) {
	s := serve.NewServer(serve.Config{Parallel: 1, QueueDepth: 1, CacheEntries: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	s.FillQueue()
	resp, body := postSweep(t, srv.URL, fastSweep)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(body), &e); err != nil || e.Error == "" {
		t.Errorf("429 body not a complete JSON error envelope: %q (%v)", body, err)
	}
	if m := metrics(t, srv.URL); m.Queue.Rejected < 1 {
		t.Errorf("queue.rejected = %d, want >= 1", m.Queue.Rejected)
	}
	s.DrainQueue()

	// The queue drained: the same request now executes and serves.
	resp, body = postSweep(t, srv.URL, fastSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, referenceBody(t, fastSweep)) {
		t.Fatalf("after drain: body diverges from CLI reference")
	}
}

// TestServeCacheHitBypassesFullQueue pins the cache/queue interplay: a
// cached result is served even while the execution queue is saturated —
// replays cost no execution slot.
func TestServeCacheHitBypassesFullQueue(t *testing.T) {
	s := serve.NewServer(serve.Config{Parallel: 1, QueueDepth: 1, CacheEntries: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	_, warm := postSweep(t, srv.URL, fastSweep)
	s.FillQueue()
	defer s.DrainQueue()
	resp, body := postSweep(t, srv.URL, fastSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached replay under full queue: status %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, warm) {
		t.Fatalf("cached replay diverges from original response")
	}
}

// TestServeContentLength pins that /sweep declares the exact body size:
// the body is materialized before headers, so Content-Length is always
// present and correct — the client-side proof streams cannot truncate.
func TestServeContentLength(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.Config{QueueDepth: 1, CacheEntries: 1}))
	defer srv.Close()
	resp, body := postSweep(t, srv.URL, fastSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
}

// TestServeInvalidRequests pins the validation edge: malformed or
// out-of-grammar requests get a 400 with the offending field named, and
// are counted as invalid, not served.
func TestServeInvalidRequests(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.Config{QueueDepth: 1, CacheEntries: 1}))
	defer srv.Close()
	cases := []struct{ body, field string }{
		{`{"workload":"mystery:9"}`, "workload"},
		{`{"workload":"cycle:12","algo":"beep","k":3}`, "k"},
		{`not json`, "body"},
	}
	for _, c := range cases {
		resp, body := postSweep(t, srv.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.body, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(body), &e); err != nil {
			t.Fatalf("%s: 400 body not JSON: %q", c.body, body)
		}
		if e.Field != c.field || e.Error == "" {
			t.Errorf("%s: envelope %+v, want field %q and a reason", c.body, e, c.field)
		}
	}
	if m := metrics(t, srv.URL); m.Reqs.Invalid != int64(len(cases)) || m.Reqs.Served != 0 {
		t.Errorf("requests = %+v, want %d invalid and 0 served", m.Reqs, len(cases))
	}
}

// TestServeMethodAndHealth covers the small surface: GET /sweep is a 405,
// /healthz answers ok.
func TestServeMethodAndHealth(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(serve.Config{QueueDepth: 1, CacheEntries: 1}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sweep")
	if err != nil {
		t.Fatalf("GET /sweep: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Errorf("/healthz: status %d body %q", resp.StatusCode, b)
	}
	// POST bodies over the limit are rejected as body errors, not crashes.
	resp2, body := postSweep(t, srv.URL, `{"workload":"`+strings.Repeat("x", 1<<20)+`"}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400 (body %s)", resp2.StatusCode, body[:min(len(body), 120)])
	}
}
