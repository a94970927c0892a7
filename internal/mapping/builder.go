// Package mapping implements map construction with a movable token: a
// finder robot accompanied by a helper robot (the token) learns a
// port-respecting isomorphic map of the whole anonymous graph in O(n³)
// rounds.
//
// The paper (§2.2, Phase 1) invokes the exploration-with-a-movable-token
// algorithm of Dieudonné, Pelc and Peleg [18] as a black box with an O(n³)
// bound. This package provides a self-contained algorithm with the same
// interface and budget (see DESIGN.md §3.2): the finder maintains a partial
// map; to classify the endpoint w of an unexplored port (v, p) it crosses
// with the token, parks the token on w, walks back, tours every known node
// of the partial map (Euler tour of a BFS tree, ≤ 2(n−1) moves), and
// identifies w as the unique known node holding the token — or as a brand
// new node if the tour finds nothing. Each of the ≤ n(n−1) half-edges costs
// O(n) moves, for O(n³) total; Budget(n) is the explicit worst-case bound
// all robots use to synchronize Phase 1.
package mapping

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Budget returns the round budget R₁(n) within which a Builder is
// guaranteed to finish on any connected n-node graph. Undispersed-Gathering
// uses it to synchronize the start of Phase 2 across all robots (all robots
// know n, hence the same budget). The bound is derived in the package doc:
// per probe ≤ (walk ≤ n) + (cross+park 2) + (tour ≤ 2n) + (retrieve ≤ n+2)
// rounds, over ≤ n(n−1) probes, plus the walk home and constant slack.
// Budgets beyond 2⁶⁰ saturate rather than overflow: the clamp is far past
// any simulable horizon, and keeps the derived schedules of million-node
// configs positive instead of wrapping.
func Budget(n int) int {
	if n < 1 {
		panic("mapping: Budget of non-positive n")
	}
	const budgetCap = 1 << 60
	nn := int64(n)
	if per := 4*nn + 8; per > budgetCap/(nn*nn) { // (4n+8)·n·(n−1) ≤ (4n+8)·n²
		return budgetCap
	}
	return (4*n+8)*n*(n-1) + n + 8
}

type state int

const (
	stIdle     state = iota // choosing / walking toward the next probe
	stParked                // token parked on the frontier; touring known map
	stRetrieve              // endpoint classified; fetching the token
	stHome                  // all ports explored; walking home
)

type opKind int

const (
	opMove  opKind = iota // move through a known port to a known map node
	opCross               // move through the probe port into the frontier
	opPark                // leave token on frontier, step back to probe origin
	opTake                // re-bind the token (Compose MsgTake, Decide Stay)
)

type op struct {
	kind opKind
	port int
	dest int // known destination map node, for opMove
	seq  int
}

// Builder is the finder-side state machine. It is driven by the simulator
// callbacks: the owner agent forwards Compose and Decide to it each round
// while Phase 1 lasts. The builder never learns simulator node indices —
// it navigates purely by ports and its partial map.
type Builder struct {
	n       int // number of nodes of the true graph (known to all robots)
	tokenID int // ID of the helper robot acting as the token

	asm *graph.Assembler
	cur int // map node currently occupied (-1 while at an unclassified frontier)

	st      state
	ops     []op // the op queue is ops[head:]; it is empty only as ops[:0]
	head    int
	nextSeq int
	sentFor int            // seq of the op Compose last serviced with a message
	msg     [1]sim.Message // Compose's reply; the engine copies it out the same round

	// BFS scratch (see bfs), reused by every walk and tour the builder
	// plans.
	parent, down, up, queue []int

	probeFrom   int // map node of the current probe's origin
	probePort   int
	frontierDeg int
	frontierArr int

	started bool
	done    bool
	rounds  int
}

// NewBuilder returns a builder for an n-node graph that will command the
// helper with the given robot ID as its token. The token must be co-located
// with the finder at the first round of operation.
func NewBuilder(n, tokenID int) *Builder {
	b := &Builder{n: n, tokenID: tokenID, asm: graph.NewAssembler(), sentFor: -1}
	b.push(op{kind: opTake}) // bind the token before the first probe
	return b
}

func (b *Builder) push(o op) {
	o.seq = b.nextSeq
	b.nextSeq++
	b.ops = append(b.ops, o)
}

// pop removes the head op. A drained queue rewinds to the start of its
// storage, so the pushes that refill it reuse that storage instead of
// allocating.
func (b *Builder) pop() {
	b.head++
	if b.head == len(b.ops) {
		b.clearOps()
	}
}

// clearOps empties the op queue, keeping its storage.
func (b *Builder) clearOps() { b.ops, b.head = b.ops[:0], 0 }

// Done reports whether the map is complete and the finder is back home.
func (b *Builder) Done() bool { return b.done }

// Rounds returns how many rounds the builder has consumed.
func (b *Builder) Rounds() int { return b.rounds }

// Skip consumes r rounds in which the owner is idle: Decide would return
// Stay and change nothing else. That holds only once the map is done.
func (b *Builder) Skip(r int) { b.rounds += r }

// Map finalizes and returns the learned map with the finder's starting
// node as node 0. It must only be called once Done() is true.
func (b *Builder) Map() (*graph.Graph, error) {
	if !b.done {
		return nil, fmt.Errorf("mapping: map requested before construction finished")
	}
	return b.asm.Graph()
}

// MemoryBits estimates the bits of map memory currently held: each learned
// half-edge stores a destination node id and a port number, both O(log n).
// This feeds experiment E9 (the paper's O(m log n) memory claim).
func (b *Builder) MemoryBits() int {
	bits := 0
	logn := 1
	for v := b.n - 1; v > 0; v >>= 1 {
		logn++
	}
	for v := 0; v < b.asm.NumNodes(); v++ {
		d := b.asm.Degree(v)
		for p := 0; p < d; p++ {
			if b.asm.EdgeKnown(v, p) {
				bits += 2 * logn
			}
		}
	}
	return bits
}

// Compose implements the communication half of a round: it emits the token
// command required by the op at the head of the queue.
func (b *Builder) Compose(env *sim.Env) []sim.Message {
	if b.done || len(b.ops) == 0 {
		return nil
	}
	head := b.ops[b.head]
	switch head.kind {
	case opTake:
		b.sentFor = head.seq
		b.msg[0] = sim.Message{To: b.tokenID, Kind: sim.MsgTake}
		return b.msg[:]
	case opPark:
		b.sentFor = head.seq
		b.msg[0] = sim.Message{To: b.tokenID, Kind: sim.MsgStayHere}
		return b.msg[:]
	}
	return nil
}

// Decide implements the compute+move half of a round.
func (b *Builder) Decide(env *sim.Env) sim.Action {
	b.rounds++
	if b.done {
		return sim.StayAction()
	}
	if !b.started {
		b.started = true
		mustEnsure(b.asm, 0, env.Degree)
		b.cur = 0
		if env.Degree == 0 { // n == 1: the map is the single node
			b.clearOps()
			b.done = true
			return sim.StayAction()
		}
	}

	// While the token is parked on the frontier, every round first checks
	// whether the frontier turned out to be the current (known) node: the
	// finder standing on its own token identifies w.
	if b.st == stParked {
		if _, here := env.OtherByID(b.tokenID); here {
			b.identify(b.cur)
		}
	}

	// Exhausted plans trigger the next planning step.
	for len(b.ops) == 0 {
		switch b.st {
		case stParked:
			// Tour finished with no identification: the frontier is new.
			b.admitNewNode()
		case stIdle:
			if !b.planNextProbe() {
				return sim.StayAction() // planNextProbe set stHome or done
			}
		case stHome:
			b.done = true
			return sim.StayAction()
		default:
			return sim.StayAction()
		}
	}

	head := b.ops[b.head]
	switch head.kind {
	case opMove:
		b.pop()
		b.cur = head.dest
		return sim.MoveAction(head.port)
	case opCross:
		b.pop()
		b.cur = -1
		return sim.MoveAction(head.port)
	case opPark:
		if b.sentFor != head.seq {
			return sim.StayAction() // wait for Compose to service this op
		}
		b.pop()
		b.frontierDeg = env.Degree
		b.frontierArr = env.ArrivalPort
		b.st = stParked
		b.cur = b.probeFrom
		b.planTour(b.probeFrom)
		return sim.MoveAction(env.ArrivalPort)
	case opTake:
		if b.sentFor != head.seq {
			return sim.StayAction()
		}
		b.pop()
		if b.st == stRetrieve {
			b.st = stIdle
		}
		return sim.StayAction()
	}
	panic("mapping: unknown op")
}

// identify resolves the current probe: the frontier is known node x.
func (b *Builder) identify(x int) {
	mustSet(b.asm, b.probeFrom, b.probePort, x, b.frontierArr)
	b.clearOps()
	// The finder stands on the token at x: take it back immediately.
	b.push(op{kind: opTake})
	b.st = stRetrieve
}

// admitNewNode resolves the current probe: the frontier is a new node.
func (b *Builder) admitNewNode() {
	id := b.asm.NumNodes()
	mustEnsure(b.asm, id, b.frontierDeg)
	mustSet(b.asm, b.probeFrom, b.probePort, id, b.frontierArr)
	if id+1 > b.n {
		panic(fmt.Sprintf("mapping: discovered %d nodes in a graph of %d", id+1, b.n))
	}
	// The tour ended back at the probe origin; fetch the token at the new
	// node and continue from there.
	b.push(op{kind: opMove, port: b.probePort, dest: id})
	b.push(op{kind: opTake})
	b.st = stRetrieve
}

// planNextProbe selects the lowest unexplored (node, port) pair, plans the
// walk to it and the cross+park, and returns true. With no unexplored port
// left it plans the walk home and returns false.
func (b *Builder) planNextProbe() bool {
	for v := 0; v < b.asm.NumNodes(); v++ {
		for p := 0; p < b.asm.Degree(v); p++ {
			if b.asm.EdgeKnown(v, p) {
				continue
			}
			b.planWalk(b.cur, v)
			b.probeFrom, b.probePort = v, p
			b.push(op{kind: opCross, port: p})
			b.push(op{kind: opPark})
			return true
		}
	}
	b.planWalk(b.cur, 0)
	b.st = stHome
	if len(b.ops) == 0 {
		b.done = true
	}
	return len(b.ops) > 0
}

// planWalk appends opMoves along a shortest known-map path from src to dst.
func (b *Builder) planWalk(src, dst int) {
	if src == dst {
		return
	}
	b.bfs(dst)
	if b.parent[src] < 0 {
		panic("mapping: partial map disconnected")
	}
	for cur := src; cur != dst; cur = b.parent[cur] {
		b.push(op{kind: opMove, port: b.up[cur], dest: b.parent[cur]})
	}
}

// bfs builds a BFS tree over known edges from root into the builder's
// scratch: for each reached node v other than root, parent[v] is the node
// that discovered it, down[v] the port there that leads to v, and up[v]
// the port at v that leads back. Root is its own parent, and unreached
// nodes have parent -1. The scratch is reused across calls, so planning
// allocates nothing once it has grown to the map's size.
func (b *Builder) bfs(root int) {
	nn := b.asm.NumNodes()
	b.parent = slices.Grow(b.parent[:0], nn)[:nn]
	b.down = slices.Grow(b.down[:0], nn)[:nn]
	b.up = slices.Grow(b.up[:0], nn)[:nn]
	for v := range b.parent {
		b.parent[v], b.down[v], b.up[v] = -1, -1, -1
	}
	b.parent[root] = root
	queue := append(b.queue[:0], root)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for p := 0; p < b.asm.Degree(u); p++ {
			if !b.asm.EdgeKnown(u, p) {
				continue
			}
			h := b.asm.Peek(u, p)
			if b.parent[h.To] < 0 {
				b.parent[h.To], b.down[h.To], b.up[h.To] = u, p, h.RevPort
				queue = append(queue, h.To)
			}
		}
	}
	b.queue = queue
}

// planTour appends a closed tour from root visiting every known node:
// a DFS (Euler tour) over a BFS tree of the known map, 2·(known−1) moves.
func (b *Builder) planTour(root int) {
	if b.asm.NumNodes() <= 1 {
		return
	}
	b.bfs(root)
	b.tourFrom(root)
}

// tourFrom appends the Euler tour of the BFS tree below u: down into each
// child in port order, around the child's subtree, and back up.
func (b *Builder) tourFrom(u int) {
	for p := 0; p < b.asm.Degree(u); p++ {
		if !b.asm.EdgeKnown(u, p) {
			continue
		}
		v := b.asm.Peek(u, p).To
		if b.parent[v] != u || b.down[v] != p {
			continue
		}
		b.push(op{kind: opMove, port: p, dest: v})
		b.tourFrom(v)
		b.push(op{kind: opMove, port: b.up[v], dest: u})
	}
}

func mustEnsure(a *graph.Assembler, v, deg int) {
	if err := a.EnsureNode(v, deg); err != nil {
		panic(err)
	}
}

func mustSet(a *graph.Assembler, u, pu, v, pv int) {
	if err := a.SetEdge(u, pu, v, pv); err != nil {
		panic(err)
	}
}
