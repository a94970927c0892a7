package graph

// BFSDistances returns hop distances from src to every node (-1 when
// unreachable, which Validate rules out for library graphs).
func (g *Graph) BFSDistances(src int) []int {
	return g.BFSDistancesInto(src, make([]int, g.N()), make([]int, 0, g.N()))
}

// BFSDistancesInto is BFSDistances into caller-owned buffers: it fills
// dist (length n) with hop distances from src and returns it. queue must
// have capacity n; every node enters it once, so it never grows, and
// callers running many passes reuse both buffers instead of allocating.
func (g *Graph) BFSDistancesInto(src int, dist, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.ports(u) {
			if dist[h.to] < 0 {
				dist[h.to] = dist[u] + 1
				queue = append(queue, int(h.to))
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	for _, d := range g.BFSDistances(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Distance returns the hop distance between u and v.
func (g *Graph) Distance(u, v int) int { return g.BFSDistances(u)[v] }

// AllPairsDistances returns the full distance matrix via n BFS passes.
func (g *Graph) AllPairsDistances() [][]int {
	d := make([][]int, g.N())
	for u := range d {
		d[u] = g.BFSDistances(u)
	}
	return d
}

// Diameter returns the maximum eccentricity, 0 for n <= 1.
func (g *Graph) Diameter() int {
	diam := 0
	dist, queue := make([]int, g.N()), make([]int, 0, g.N())
	for u := 0; u < g.N(); u++ {
		for _, d := range g.BFSDistancesInto(u, dist, queue) {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// ShortestPathPorts returns the sequence of ports leading from u to v along
// one shortest path, or nil when u == v.
func (g *Graph) ShortestPathPorts(u, v int) []int {
	if u == v {
		return nil
	}
	dist := g.BFSDistances(v) // distances to the target
	ports := make([]int, 0, dist[u])
	cur := u
	for cur != v {
		moved := false
		for p, h := range g.ports(cur) {
			if dist[h.to] == dist[cur]-1 {
				ports = append(ports, p)
				cur = int(h.to)
				moved = true
				break
			}
		}
		if !moved {
			return nil // unreachable
		}
	}
	return ports
}

// Walk follows a port sequence from start and returns the final node. It
// panics on an out-of-range port, like a robot using a port that does not
// exist.
func (g *Graph) Walk(start int, ports []int) int {
	cur := start
	for _, p := range ports {
		cur, _ = g.Neighbor(cur, p)
	}
	return cur
}
