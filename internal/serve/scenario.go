// Package serve is the sweep-serving layer: the declarative sweep
// request (the workload catalog grammar as a wire format), its canonical
// serialization and content-address, the executor that runs a request on
// the pooled parallel runner and renders NDJSON rows, the bounded
// admission queue, the single-flight LRU result cache, and the HTTP
// handlers that tie them together for cmd/sweepd.
//
// The package is in the repolint deterministic set: everything between
// request bytes and response bytes — parsing, validation,
// canonicalization, job construction, row rendering — must be a pure
// function of the request, so a cached replay is bit-identical to a fresh
// execution and the service path diffs clean against the CLIs. The only
// sanctioned wall-clock reads are the annotated metrics probes in
// clock.go; they feed operator counters, never response bytes.
package serve

import (
	"fmt"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/uxs"
)

// CertifyMaxNodes bounds the instance sizes that report a diameter: the
// all-pairs BFS is superlinear and infeasible at the million-node scale
// workloads, so larger instances report none. Shared by gathersim and the
// sweep service, so the two paths always agree on it.
const CertifyMaxNodes = 1 << 14

// CertifyScenario pins the scenario's UXS length to T = uxs.Length(mode,
// n), the length every run derives from n alone. It walks nothing; the
// run paths leave Cfg.UXSLen at zero, which means the same T.
func CertifyScenario(sc *gather.Scenario) {
	sc.Cfg.UXSLen = uxs.Length(sc.Cfg.UXSMode, sc.G.N())
}

// Diameter returns the graph's diameter and true, or 0 and false when the
// instance is too large for the all-pairs BFS.
func Diameter(g *graph.Graph) (int, bool) {
	if g.N() > CertifyMaxNodes {
		return 0, false
	}
	return g.Diameter(), true
}

// BuildSched parses a scheduler spec into a fresh per-run scheduler. The
// SemiSync stream seed is decorrelated from the scenario seed (which
// already drives the graph, ports, IDs and placement) by a fixed bit
// flip, so activation patterns and topology draws never share a stream
// state. The flip constant is part of the engine's determinism contract:
// gathersim and sweepd both route through here, so a request tuple means
// the same activation stream everywhere.
func BuildSched(spec string, seed uint64) (sim.Scheduler, error) {
	return sim.ParseScheduler(spec, seed^0x5EEDC0DEC0FFEE42)
}

// PlaceRobots draws k starting positions on g with the requested engine.
func PlaceRobots(g *graph.Graph, placement string, k int, rng *graph.RNG) ([]int, error) {
	n := g.N()
	switch placement {
	case "maxmin":
		pos := place.MaxMinDispersed(g, min(k, n), rng)
		for len(pos) < k { // more robots than nodes: stack the extras
			pos = append(pos, rng.Intn(n))
		}
		return pos, nil
	case "random":
		return place.Random(g, k, rng), nil
	case "dispersed":
		return place.RandomDispersed(g, k, rng), nil
	case "clustered":
		return place.Clustered(g, k, max(1, k/2), rng), nil
	default:
		return nil, fmt.Errorf("unknown placement %q", placement)
	}
}

// RowScenario derives one sweep row's scenario from its row seed: the
// placement, then the IDs, both from one stream seeded by the row seed,
// then the row's scheduler, all on the shared frozen graph g with the
// default config. Sweep rows and hunt candidates both come from here, so
// a seed means the same instance on every surface.
func RowScenario(g *graph.Graph, placement string, k int, sched string, seed uint64) (*gather.Scenario, error) {
	rng := graph.NewRNG(seed)
	pos, err := PlaceRobots(g, placement, k, rng)
	if err != nil {
		return nil, err
	}
	sc := &gather.Scenario{G: g, IDs: gather.AssignIDs(k, g.N(), rng), Positions: pos}
	if sc.Sched, err = BuildSched(sched, seed); err != nil {
		return nil, err
	}
	return sc, nil
}
