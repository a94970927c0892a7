package main

import (
	"fmt"
	"time"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/uxs"
)

// placement is the placement every generated request uses.
const placement = "maxmin"

// SetupCost is the setup of sweep requests, replayed in-process and timed
// layer by layer, summed over the requests replayed.
type SetupCost struct {
	Requests  int
	Build     time.Duration // graph.ParseWorkload + Workload.Build
	Certify   time.Duration // serve.CertifyScenario
	Place     time.Duration // serve.PlaceRobots + gather.AssignIDs, every row seed
	Nodes     int
	Edges     int
	UXSLen    int // summed certified sequence lengths
	Doublings int // summed doublings certification needed beyond the base length
	Robots    int // robots placed
}

// Replay repeats the setup calls the service makes for req, in the order
// ExecuteNDJSON makes them, adds their cost to c, and returns the built
// graph's name for comparison with the response header.
func (c *SetupCost) Replay(req Request) (string, error) {
	t0 := time.Now()
	wl, err := graph.ParseWorkload(req.Workload)
	if err != nil {
		return "", err
	}
	g, err := wl.Build(graph.NewRNG(req.Seed))
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	sc := &gather.Scenario{G: g}
	serve.CertifyScenario(sc)
	t2 := time.Now()
	for i := 0; i < req.Seeds; i++ {
		rng := graph.NewRNG(req.Seed + uint64(i))
		pos, err := serve.PlaceRobots(g, placement, req.K, rng)
		if err != nil {
			return "", fmt.Errorf("replay %s seed %d: %w", req.Workload, req.Seed, err)
		}
		gather.AssignIDs(req.K, g.N(), rng)
		c.Robots += len(pos)
	}
	t3 := time.Now()

	c.Requests++
	c.Build += t1.Sub(t0)
	c.Certify += t2.Sub(t1)
	c.Place += t3.Sub(t2)
	c.Nodes += g.N()
	c.Edges += g.M()
	if l := sc.Cfg.UXSLen; l > 0 {
		c.UXSLen += l
		for b := uxs.Length(sc.Cfg.UXSMode, g.N()); b < l; b *= 2 {
			c.Doublings++
		}
	}
	return g.String(), nil
}

// Total is the replayed setup time.
func (c *SetupCost) Total() time.Duration { return c.Build + c.Certify + c.Place }

// Report records the setup layers' per-layer metrics.
func (c *SetupCost) Report(rep *Report) {
	n := c.Requests
	rep.must("graph.build_ms", ms(c.Build), "ms", n)
	rep.must("graph.nodes", float64(c.Nodes), "count", n)
	rep.must("graph.edges", float64(c.Edges), "count", n)
	rep.must("uxs.certify_ms", ms(c.Certify), "ms", n)
	if n > 0 {
		rep.must("uxs.len", float64(c.UXSLen)/float64(n), "count", n)
	}
	rep.must("uxs.doublings", float64(c.Doublings), "count", n)
	rep.must("place.ms", ms(c.Place), "ms", n)
	rep.must("place.robots", float64(c.Robots), "count", n)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
