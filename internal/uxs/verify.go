package uxs

import (
	"fmt"

	"repro/internal/graph"
)

// CoverageRounds simulates the sequence-driven walk on g from start and
// returns the first step index (1-based) at which every node has been
// visited, or -1 if the full sequence does not cover the graph.
func (u *UXS) CoverageRounds(g *graph.Graph, start int) int {
	n := g.N()
	if n == 1 {
		return 1
	}
	visited := make([]bool, n)
	visited[start] = true
	left := n - 1
	cur, entry := start, -1
	for i := 0; i < u.length; i++ {
		p := u.NextPort(i, entry, g.Degree(cur))
		cur, entry = g.Neighbor(cur, p)
		if !visited[cur] {
			visited[cur] = true
			left--
			if left == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// CoverError reports a start node from which the walk of length T leaves
// some node of the graph unvisited.
type CoverError struct {
	Graph string // the graph's String()
	Start int
	T     int
}

func (e *CoverError) Error() string {
	return fmt.Sprintf("uxs: the walk of length T=%d from node %d does not cover %s", e.T, e.Start, e.Graph)
}

// Check returns nil when the walk from every start node visits all nodes
// of g within the sequence length, and otherwise a *CoverError naming the
// first start node whose walk does not. Gathering correctness needs
// coverage from every possible position, because a waiting robot can sit
// anywhere.
func (u *UXS) Check(g *graph.Graph) error {
	for s := 0; s < g.N(); s++ {
		if u.CoverageRounds(g, s) < 0 {
			return &CoverError{Graph: g.String(), Start: s, T: u.length}
		}
	}
	return nil
}
