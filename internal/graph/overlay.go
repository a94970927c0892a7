package graph

import "fmt"

// Overlay is a mutable edge-mask view over a frozen Graph: the dynamic
// worlds of ROADMAP item 4 without unfreezing the CSR core. The base
// graph's halves/offsets arrays are never written (frozenwrite still
// holds — and is extended to guard the mask itself); all mutability lives
// in a per-half-edge closed mask owned by the overlay.
//
// The churn adversary is connectivity-preserving *by construction*: at
// build time the overlay roots a BFS spanning tree at node 0 and only
// non-tree edges are churn candidates. The tree is permanently open, so
// every closed candidate has its endpoints connected through the tree and
// the open subgraph is connected after every round — no per-round bridge
// computation, which is what keeps AdvanceTo allocation-free (CI-gated).
//
// Closed edges have "closed door" semantics chosen to preserve the
// anonymous port-labeled model: Degree and port numbers never change (a
// robot's port arithmetic stays valid), and a robot that moves through a
// closed port simply stays put this round — it spent the round pushing a
// door that would not open, and cannot distinguish that from its own
// choice to stay beyond what it senses of its surroundings. Neighbor
// still answers for closed ports (the topology is frozen; only passage is
// gated), so engines consult Open exactly once, in their resolve phase.
//
// Churn is drawn from the overlay's own seeded RNG, one stream for the
// whole instance: round r's mask is a pure function of (graph, rate,
// seed, r). The engine calls AdvanceTo(r) before resolving round r; the
// overlay applies each round's toggles exactly once, so every run of an
// instance observes identical masks. An Overlay is single-world state
// like a Scheduler: a sweep worker reuses one pooled overlay across its
// sequential runs, never across concurrent worlds.
type Overlay struct {
	g    *Graph  //repolint:keep identity: the frozen instance this overlay masks
	rate float64 //repolint:keep identity: pool keys overlays by (g, rate, seed)
	seed uint64  //repolint:keep identity: Reset reseeds the stream FROM this
	rng  RNG

	// closed is the per-half-edge mask; both halves of an edge always
	// agree. Only churnRound, Reset and NewOverlay may write it —
	// enforced statically by the frozenwrite analyzer's overlay rule.
	closed  []bool  //repolint:keep cleared entrywise through candU/candV — only candidate halves are ever set
	candU   []int32 //repolint:keep frozen at construction: candidate half at u (u<v side) of each non-tree edge
	candV   []int32 //repolint:keep frozen at construction: matching half index at v
	applied int     // churn rounds applied so far: rounds [0, applied) are in the mask
	nclosed int     // candidates currently closed
}

// NewOverlay builds an overlay over g churning with the given per-edge
// per-round toggle probability, seeded with seed. It panics if rate is
// outside [0, 1] (a caller bug, like an invalid port) and if g is
// disconnected (no spanning tree protects connectivity then).
func NewOverlay(g *Graph, rate float64, seed uint64) *Overlay {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("graph: overlay churn rate %v outside [0, 1]", rate))
	}
	o := &Overlay{
		g:      g,
		rate:   rate,
		seed:   seed,
		closed: make([]bool, len(g.halves)),
	}
	t := g.BFSTree(0)
	for u := 1; u < g.N(); u++ {
		if t.Parent[u] < 0 {
			panic(fmt.Sprintf("graph: overlay over disconnected graph (node %d unreachable)", u))
		}
	}
	for u := 0; u < g.N(); u++ {
		for p, h := range g.ports(u) {
			v := int(h.to)
			if v <= u {
				continue // each undirected edge once; self-loops excluded
			}
			tree := (t.Parent[v] == u && t.PortDown[v] == p) ||
				(t.Parent[u] == v && t.PortDown[u] == int(h.rev))
			if tree {
				continue
			}
			o.candU = append(o.candU, g.offsets[u]+int32(p))
			o.candV = append(o.candV, g.offsets[v]+h.rev)
		}
	}
	o.Reset()
	return o
}

// Reset rewinds the overlay to its initial state: every edge open, the
// churn stream reseeded, zero rounds applied. Pooled sweep layers call it
// between runs so a pooled run replays the churn of a fresh overlay
// bit-for-bit.
func (o *Overlay) Reset() {
	for ci := range o.candU {
		o.closed[o.candU[ci]] = false
		o.closed[o.candV[ci]] = false
	}
	o.nclosed = 0
	o.applied = 0
	o.rng = *NewRNG(o.seed)
}

// AdvanceTo brings the mask up to round: churn for every round in
// [applied, round] is applied exactly once, in order. Calls with an
// already-applied round are no-ops, so engines may call it every round
// unconditionally.
func (o *Overlay) AdvanceTo(round int) {
	for o.applied <= round {
		o.churnRound()
		o.applied++
	}
}

// churnRound applies one round of seeded churn: each candidate (non-tree)
// edge toggles between open and closed with probability rate. The
// candidate order is the frozen CSR order, so the draw sequence — and
// therefore every mask — is a pure function of (graph, rate, seed, round).
func (o *Overlay) churnRound() {
	for ci := range o.candU {
		if o.rng.Float64() < o.rate {
			hu, hv := o.candU[ci], o.candV[ci]
			if o.closed[hu] {
				o.nclosed--
			} else {
				o.nclosed++
			}
			o.closed[hu] = !o.closed[hu]
			o.closed[hv] = !o.closed[hv]
		}
	}
}

// Open reports whether the edge behind node u's given port is currently
// traversable. Port validity is the caller's contract, as with Neighbor.
func (o *Overlay) Open(u, port int) bool {
	return !o.closed[o.g.offsets[u]+int32(port)]
}

// Base returns the frozen graph the overlay masks.
func (o *Overlay) Base() *Graph { return o.g }

// Rate returns the per-edge per-round toggle probability.
func (o *Overlay) Rate() float64 { return o.rate }

// Seed returns the churn stream's seed.
func (o *Overlay) Seed() uint64 { return o.seed }

// Candidates returns the number of churnable (non-tree) edges.
func (o *Overlay) Candidates() int { return len(o.candU) }

// ClosedEdges returns the number of currently closed edges.
func (o *Overlay) ClosedEdges() int { return o.nclosed }

// Applied returns the number of churn rounds applied so far.
func (o *Overlay) Applied() int { return o.applied }

// N, M, Degree, MaxDegree and Neighbor delegate to the base graph: the
// overlay is Degree/Neighbor-compatible with Graph, so engine code reads
// topology through either without caring which it holds.

// N returns the number of nodes.
func (o *Overlay) N() int { return o.g.N() }

// M returns the number of edges of the base graph (open or closed).
func (o *Overlay) M() int { return o.g.M() }

// Degree returns the degree of node u — closed doors included, so port
// labels stay stable under churn.
func (o *Overlay) Degree(u int) int { return o.g.Degree(u) }

// MaxDegree returns the maximum degree of the base graph.
func (o *Overlay) MaxDegree() int { return o.g.MaxDegree() }

// Neighbor returns the endpoint and reverse port behind node u's given
// port in the base topology, whether or not the edge is currently open.
func (o *Overlay) Neighbor(u, port int) (int, int) { return o.g.Neighbor(u, port) }

// Connected reports whether the currently-open subgraph is connected — a
// test and experiment helper pinning the connectivity-preservation
// invariant; it allocates and is not for engine hot paths.
func (o *Overlay) Connected() bool {
	n := o.g.N()
	if n == 0 {
		return true
	}
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	visited[0] = true
	queue = append(queue, 0)
	seen := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := range o.g.ports(u) {
			if !o.Open(u, p) {
				continue
			}
			v, _ := o.g.Neighbor(u, p)
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
	}
	return seen == n
}
