package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/prof"
)

// maxRequestBody bounds one request body read; canonical requests are a
// few hundred bytes, so a megabyte is generous.
const maxRequestBody = 1 << 20

// retryAfterSeconds is the backoff hint on a 429: one second is one
// sweep's worth of breathing room for the CI-scale workloads, and a
// constant keeps the shed path free of clock reads.
const retryAfterSeconds = 1

// errBusy is the queue-full reject; the handler maps it to 429.
var errBusy = errors.New("serve: execution queue full")

// Config sizes one server.
type Config struct {
	Parallel     int // runner pool per execution; 0 selects GOMAXPROCS
	QueueDepth   int // concurrent executions admitted before 429
	CacheEntries int // result-cache capacity (whole response bodies)
}

// Server is the sweep service: the HTTP handlers plus the queue, cache
// and counters behind them. Construct with NewServer; it is an
// http.Handler serving:
//
//	POST /sweep    run (or replay) a sweep request, NDJSON response
//	GET  /metrics  cache/queue/request counters + engine phase totals
//	GET  /healthz  liveness probe
type Server struct {
	cfg   Config
	queue *Queue
	cache *Cache
	mux   *http.ServeMux

	served    atomic.Int64 // sweep responses written (hit, miss or coalesced)
	invalid   atomic.Int64 // requests rejected by validation
	execNanos atomic.Int64 // cumulative sweep execution wall time
}

// NewServer wires a server from its config.
func NewServer(cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 1
	}
	s := &Server{
		cfg:   cfg,
		queue: NewQueue(cfg.QueueDepth),
		cache: NewCache(cfg.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope for every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// writeError emits the error envelope with the given status.
func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(body)
	w.Write(b)
	w.Write([]byte("\n"))
}

// handleSweep is the serving path: parse-validate-canonicalize, then
// answer from the content-addressed cache, coalescing concurrent
// identical requests into one execution and shedding load with 429 +
// Retry-After when the execution queue is full. The response body is
// fully materialized before the first byte is written (see ExecuteNDJSON)
// — a client sees a complete stream or an error status, never a
// truncation — and cached replays are byte-identical to fresh runs
// because both are the same bytes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a sweep request to /sweep"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Error: "reading request body: " + err.Error(), Field: "body"})
		s.invalid.Add(1)
		return
	}
	req, err := ParseSweepRequest(data)
	if err != nil {
		body := errorBody{Error: err.Error()}
		var re *RequestError
		if errors.As(err, &re) {
			body.Field = re.Field
		}
		writeError(w, http.StatusBadRequest, body)
		s.invalid.Add(1)
		return
	}

	body, err := s.cache.GetOrFill(req.Key(), func() ([]byte, error) {
		if !s.queue.TryAcquire() {
			return nil, errBusy
		}
		defer s.queue.Release()
		t0 := execStart()
		defer func() { s.execNanos.Add(execElapsed(t0)) }()
		return ExecuteNDJSON(r.Context(), req, ExecConfig{Parallel: s.cfg.Parallel})
	})
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, errorBody{Error: "execution queue full; retry shortly"})
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			return // this client is gone; nothing to write
		}
		// A coalesced follower whose leader disconnected: the result was
		// never produced, but the service is healthy — retry is the cure.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, errorBody{Error: "execution canceled; retry shortly"})
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	s.served.Add(1)
}

// requestStats is the request-level counter block of /metrics.
type requestStats struct {
	Served  int64 `json:"served"`
	Invalid int64 `json:"invalid"`
}

// metricsBody is the /metrics response. Field order is fixed by the
// struct; everything here is measurement and may differ run to run — the
// determinism contract covers /sweep bodies, not operator counters.
type metricsBody struct {
	Cache    CacheStats         `json:"cache"`
	Queue    QueueStats         `json:"queue"`
	Requests requestStats       `json:"requests"`
	ExecNS   int64              `json:"exec_ns"`
	Phases   prof.PhaseSnapshot `json:"phases"`
}

// handleMetrics reports the counters: cache hit/miss/coalesced/eviction,
// queue capacity/in-flight/rejected, request served/invalid totals,
// cumulative execution wall time, and the engine's per-phase totals
// (observe/communicate/decide/resolve/apply) from the prof registry — the
// where-does-round-time-go view, no profiler attached.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errorBody{Error: "GET /metrics"})
		return
	}
	m := metricsBody{
		Cache:    s.cache.Stats(),
		Queue:    s.queue.Stats(),
		Requests: requestStats{Served: s.served.Load(), Invalid: s.invalid.Load()},
		ExecNS:   s.execNanos.Load(),
		Phases:   prof.Snapshot(),
	}
	b, err := json.Marshal(m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}
