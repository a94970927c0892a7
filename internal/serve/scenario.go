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

// BuildWorld loads the scenario into a world for the requested algorithm
// and returns it with the algorithm-derived round cap (gather.AlgoCap).
// A non-nil arena pools the world and agents across calls (sweep workers
// hand each job their pooled arena); nil builds fresh.
func BuildWorld(sc *gather.Scenario, algo string, radius int, arena *gather.Arena) (*sim.World, int, error) {
	cap, err := sc.AlgoCap(algo, radius)
	if err != nil {
		return nil, 0, err
	}
	var w *sim.World
	switch algo {
	case "faster":
		w, err = sc.NewFasterWorldIn(arena)
	case "uxs":
		w, err = sc.NewUXSWorldIn(arena)
	case "undispersed":
		w, err = sc.NewUndispersedWorldIn(arena)
	case "hopmeet":
		w, err = sc.NewHopMeetWorldIn(arena, radius)
	case "dessmark":
		w, err = sc.NewDessmarkWorldIn(arena)
	case "beep":
		// The beeping-model algorithm is defined for at most two robots.
		w, err = sc.NewBeepWorldIn(arena)
	}
	return w, cap, err
}
