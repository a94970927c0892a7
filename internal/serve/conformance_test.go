package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// The conformance suite proves the service IS the CLI: every NDJSON body
// the HTTP path produces is byte-identical to what `gathersim -ndjson`
// writes for the same request, across worker counts, concurrent clients,
// and the cache hit/miss/coalesced paths. The reference bytes come from
// ExecuteNDJSON at Parallel 1 — the same Execute and RenderNDJSON calls
// the CLI's -ndjson mode makes — so a drift
// anywhere in the serving stack (canonicalization, caching, queueing,
// header handling) diffs loudly here.

// conformanceRequests are the request bodies the suite replays. All are
// sized to run in milliseconds; the crash entry drives an adversarial
// scheduler into contained per-seed panics, pinning that crash rows — not
// just happy-path rows — survive the HTTP round trip bit-exactly, and the
// byzantine entry sweeps a faulted-and-churned request, pinning the fault
// layer's service bytes to the CLI's.
var conformanceRequests = []struct {
	name string
	body string
}{
	{"sweep", `{"workload":"cycle:12","algo":"faster","k":4,"seeds":8}`},
	{"crash", `{"workload":"grid:4x4","algo":"faster","k":5,"sched":"adv:2","seeds":12}`},
	{"byzantine", `{"workload":"torus:4x4","algo":"faster","k":4,"seeds":8,"faults":"byz:1","churn":0.2}`},
}

// referenceBody computes the CLI-path bytes for a request: the exact call
// chain gathersim -ndjson runs, at the most conservative execution shape
// (one worker).
func referenceBody(t *testing.T, body string) []byte {
	t.Helper()
	req, err := serve.ParseSweepRequest([]byte(body))
	if err != nil {
		t.Fatalf("reference request %s: %v", body, err)
	}
	out, err := serve.ExecuteNDJSON(context.Background(), req, serve.ExecConfig{Parallel: 1})
	if err != nil {
		t.Fatalf("reference execution %s: %v", body, err)
	}
	return out
}

// postSweep POSTs one request body and returns status, headers and body.
func postSweep(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// metrics fetches and decodes /metrics.
func metrics(t *testing.T, url string) serveMetrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m serveMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return m
}

// serveMetrics mirrors the /metrics envelope fields the tests assert on.
type serveMetrics struct {
	Cache serve.CacheStats `json:"cache"`
	Queue serve.QueueStats `json:"queue"`
	Reqs  struct {
		Served  int64 `json:"served"`
		Invalid int64 `json:"invalid"`
	} `json:"requests"`
}

// TestServeConformance is the tentpole gate: for every worker count and
// client count in the matrix, every response body — first contact (miss),
// concurrent duplicates (coalesced) and replays (hit) — is byte-identical
// to the CLI reference.
func TestServeConformance(t *testing.T) {
	refs := make(map[string][]byte, len(conformanceRequests))
	for _, cr := range conformanceRequests {
		refs[cr.name] = referenceBody(t, cr.body)
	}
	for _, workers := range []int{1, 4} {
		for _, clients := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers%d_clients%d", workers, clients), func(t *testing.T) {
				srv := httptest.NewServer(serve.NewServer(serve.Config{
					Parallel: workers, QueueDepth: 2, CacheEntries: 8,
				}))
				defer srv.Close()

				for _, cr := range conformanceRequests {
					// Wave 1: concurrent identical requests — one execution
					// (single-flight), every client the same bytes.
					// Wave 2: sequential replays — cache hits, same bytes.
					for wave := 0; wave < 2; wave++ {
						bodies := make([][]byte, clients)
						var wg sync.WaitGroup
						for c := 0; c < clients; c++ {
							wg.Add(1)
							go func(c int) {
								defer wg.Done()
								resp, b := postSweep(t, srv.URL, cr.body)
								if resp.StatusCode != http.StatusOK {
									t.Errorf("%s wave %d client %d: status %d, body %s", cr.name, wave, c, resp.StatusCode, b)
									return
								}
								if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
									t.Errorf("%s: Content-Type %q", cr.name, ct)
								}
								bodies[c] = b
							}(c)
						}
						wg.Wait()
						if t.Failed() {
							t.Fatalf("%s wave %d: a client saw a non-200; aborting byte comparison", cr.name, wave)
						}
						for c, b := range bodies {
							if !bytes.Equal(b, refs[cr.name]) {
								t.Fatalf("%s wave %d client %d: service bytes diverge from CLI\n got: %s\nwant: %s",
									cr.name, wave, c, b, refs[cr.name])
							}
						}
					}
				}

				m := metrics(t, srv.URL)
				if m.Cache.Misses != int64(len(conformanceRequests)) {
					t.Errorf("misses = %d, want %d (one execution per distinct request)", m.Cache.Misses, len(conformanceRequests))
				}
				wantAnswered := int64(2 * clients * len(conformanceRequests))
				if got := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced; got != wantAnswered {
					t.Errorf("hits+misses+coalesced = %d, want %d", got, wantAnswered)
				}
				if m.Reqs.Served != wantAnswered {
					t.Errorf("served = %d, want %d", m.Reqs.Served, wantAnswered)
				}
			})
		}
	}
}
