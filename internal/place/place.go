// Package place generates initial robot placements. The paper's adversary
// chooses where robots start, so experiments need both benign (random,
// clustered) and adversarial (max-min dispersed, exact-distance pair)
// placement engines.
package place

import (
	"fmt"

	"repro/internal/graph"
)

// Random places k robots uniformly at random; nodes may repeat, so the
// result can be undispersed by chance.
func Random(g *graph.Graph, k int, rng *graph.RNG) []int {
	pos := make([]int, k)
	for i := range pos {
		pos[i] = rng.Intn(g.N())
	}
	return pos
}

// RandomDispersed places k <= n robots on k distinct random nodes.
func RandomDispersed(g *graph.Graph, k int, rng *graph.RNG) []int {
	if k > g.N() {
		panic(fmt.Sprintf("place: %d robots cannot disperse on %d nodes", k, g.N()))
	}
	return rng.Perm(g.N())[:k]
}

// Clustered places k robots into c groups on distinct random nodes,
// spreading group sizes as evenly as possible. The result is undispersed
// whenever some group has two or more robots.
func Clustered(g *graph.Graph, k, c int, rng *graph.RNG) []int {
	if c < 1 || c > k || c > g.N() {
		panic(fmt.Sprintf("place: bad cluster count %d for k=%d n=%d", c, k, g.N()))
	}
	homes := rng.Perm(g.N())[:c]
	pos := make([]int, k)
	for i := range pos {
		pos[i] = homes[i%c]
	}
	return pos
}

// MaxMinDispersed is the adversarial placement: it greedily maximizes the
// minimum pairwise distance using farthest-point traversal (the classic
// 2-approximation of the k-center dispersion objective). This is the
// placement Lemma 15 reasons about — the adversary keeping robots as far
// apart as possible.
func MaxMinDispersed(g *graph.Graph, k int, rng *graph.RNG) []int {
	n := g.N()
	if k > n {
		panic(fmt.Sprintf("place: %d robots cannot disperse on %d nodes", k, n))
	}
	if k == 0 {
		return nil
	}
	// One BFS per chosen point (k total) — never the O(n²) all-pairs
	// matrix, which is infeasible on the million-node scale workloads —
	// and every pass after the first reuses one distance and queue buffer.
	pos := make([]int, 1, k)
	pos[0] = rng.Intn(n)
	queue := make([]int, 0, n)
	minDist := g.BFSDistancesInto(pos[0], make([]int, n), queue) // distance to the closest chosen node
	dist := make([]int, n)
	for len(pos) < k {
		best, bestD := -1, -1
		for v := 0; v < n; v++ {
			if minDist[v] > bestD {
				best, bestD = v, minDist[v]
			}
		}
		pos = append(pos, best)
		for v, d := range g.BFSDistancesInto(best, dist, queue) {
			if d < minDist[v] {
				minDist[v] = d
			}
		}
	}
	return pos
}

// PairAtDistance returns two nodes at exactly hop distance d, or ok=false
// when the graph has no such pair. Experiments E2 and E6 use it to pin the
// initial distance the theorems condition on.
func PairAtDistance(g *graph.Graph, d int, rng *graph.RNG) (u, v int, ok bool) {
	order := rng.Perm(g.N())
	for _, a := range order {
		dist := g.BFSDistances(a)
		for _, b := range order {
			if dist[b] == d {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}

// MinPairwise returns the minimum hop distance between any two of the
// placed robots (0 for a shared node), or -1 with fewer than two robots.
func MinPairwise(g *graph.Graph, pos []int) int {
	if len(pos) < 2 {
		return -1
	}
	best := -1
	for i, p := range pos {
		d := g.BFSDistances(p)
		for j, q := range pos {
			if i != j && (best < 0 || d[q] < best) {
				best = d[q]
			}
		}
	}
	return best
}
