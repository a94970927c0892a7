// Command sweepd is the long-lived sweep service: the gathersim -seeds
// batch harness behind an HTTP front. It accepts declarative sweep
// requests — workload spec × algorithm × k × scheduler × seed range, the
// workload catalog grammar as the wire format — validates them eagerly,
// executes them on the pooled parallel runner, and streams the result
// rows back as NDJSON. Repeated requests
// are content-addressed cache hits: responses are keyed on the canonical
// request, so identical requests from many clients pay one execution.
//
//	sweepd -addr 127.0.0.1:8787 &
//	curl -s -X POST -d '{"workload":"cycle:12","algo":"dessmark","k":7,
//	    "sched":"semi:0.5","seed":1,"seeds":16}' \
//	  http://127.0.0.1:8787/sweep
//
// The response is bit-identical to `gathersim -ndjson` with the same
// tuple, at every -parallel setting, on both the cache-miss and
// cache-hit paths — the conformance suite in internal/serve and the CI
// sweepd gate pin that byte-for-byte. GET /metrics exposes cache
// hit/miss/eviction counters, queue backpressure counters, and the
// engine's per-phase time totals; a full execution queue answers 429
// with Retry-After instead of queueing unboundedly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/prof"
	"repro/internal/serve"
)

func main() {
	os.Exit(sweepd())
}

// sweepd is the real main, returning an exit code so deferred teardown
// always runs.
func sweepd() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8787", "listen address")
		parallel = flag.Int("parallel", 0, "worker-pool size per execution (0 = GOMAXPROCS; a sweep uses at most one worker per 8 seeds); output-invariant")
		queue    = flag.Int("queue", 4, "concurrent sweep executions admitted before 429")
		cacheN   = flag.Int("cache", 256, "result-cache capacity (whole response bodies)")
		phases   = flag.Bool("phases", true, "accumulate per-phase engine time for /metrics (near-zero cost)")
	)
	flag.Parse()

	prof.EnablePhases(*phases)

	srv := &http.Server{
		Addr: *addr,
		Handler: serve.NewServer(serve.Config{
			Parallel:     *parallel,
			QueueDepth:   *queue,
			CacheEntries: *cacheN,
		}),
		// The response body is fully materialized before the first byte,
		// so the write timeout bounds only the network transfer; reads are
		// small JSON bodies. Long sweeps run under the request context,
		// which client disconnection cancels.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("sweepd: listening on %s (queue %d, cache %d)\n",
			*addr, *queue, *cacheN)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sweepd: shutdown:", err)
		return 1
	}
	fmt.Println("sweepd: drained and stopped")
	return 0
}
