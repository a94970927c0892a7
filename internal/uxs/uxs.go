// Package uxs provides universal exploration sequences: deterministic port
// offset sequences, computable from n alone, that drive a walk guaranteed
// to visit every node of any connected n-node port-labeled graph.
//
// The paper (§2.1) uses the Ta-Shma–Zwick construction of length T = Õ(n⁵)
// as a black box. Reimplementing that construction (which rests on
// Reingold-style derandomization) is out of scope and irrelevant to the
// algorithms being reproduced, so this package substitutes a deterministic
// pseudorandom offset sequence seeded from n only (see DESIGN.md §1):
//
//   - same interface: a sequence s_1, s_2, ..., s_T computable by every
//     robot from n; a robot entering a node through port p exits through
//     port (p + s_i) mod δ;
//   - same contract: a walk of length T visits all nodes. Random offset
//     sequences of length Θ(n³) satisfy this with overwhelming margin
//     (expected cover time of the induced uniform walk is ≤ 2m(n−1) ≤ n³).
//     T is Length(mode, n) on every run path and never depends on the
//     graph, so coverage is a checked property, not an input: Check
//     returns a *CoverError for an uncovered instance, the experiments
//     check every instance whose algorithms walk the sequence, and the
//     tests check the workload catalog and every connected graph on up
//     to 4 nodes;
//   - both the paper-faithful length Θ(n⁵ log n) and the scaled default
//     Θ(n³) are available via Mode.
//
// The sequence is stateless: offset i is a hash of (seed, i), so a robot
// needs O(log n) memory to run it, strictly less than the paper's M.
package uxs

// Mode selects the length regime of the sequence.
type Mode int

const (
	// Scaled uses length 8·n³, matching the expected cover time of the
	// induced walk with an 8x margin. Experiments check coverage per
	// instance. This is the default for scaling sweeps.
	Scaled Mode = iota
	// Faithful uses the paper's T = Θ(n⁵ log n) length. Only feasible for
	// small n; used to validate correctness under paper budgets.
	Faithful
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Faithful {
		return "faithful"
	}
	return "scaled"
}

// maxLength caps the computed sequence length: far beyond any simulable
// horizon, far below int overflow. Without it the n³/n⁵ products wrap
// negative around n = 2²⁰ and WithLength panics, so million-node configs
// clamp instead — the clamped T still exceeds every round budget a run
// could execute.
const maxLength = 1 << 60

// Length returns the sequence length T for graphs of n nodes under the
// given mode. All robots in a run must use the same mode so their phase
// schedules agree, exactly as all the paper's robots share one T.
// Lengths beyond 2⁶⁰ saturate rather than overflow.
func Length(m Mode, n int) int {
	if n <= 1 {
		return 1
	}
	nn := satMul(satMul(int64(n), int64(n)), int64(n))
	switch m {
	case Faithful:
		return int(satMul(satMul(satMul(nn, int64(n)), int64(n)), int64(ceilLog2(n))))
	default:
		return int(satMul(8, nn))
	}
}

// satMul multiplies non-negative operands, saturating at maxLength.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxLength/b {
		return maxLength
	}
	return a * b
}

func ceilLog2(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// UXS is a deterministic exploration sequence for n-node graphs. The zero
// value is not usable; construct with New or WithLength.
type UXS struct {
	n      int
	length int
	seed   uint64
}

// New returns the exploration sequence for n-node graphs under mode m.
// Every robot that knows n computes the identical sequence.
func New(n int, m Mode) *UXS { return WithLength(n, Length(m, n)) }

// WithLength returns a sequence of an explicit length: robots build theirs
// from their run's shared Config, and tests use it for short sequences.
func WithLength(n, length int) *UXS {
	if n < 1 || length < 1 {
		panic("uxs: need n >= 1 and length >= 1")
	}
	return &UXS{n: n, length: length, seed: splitmix(uint64(n)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)}
}

// N returns the node count the sequence was built for.
func (u *UXS) N() int { return u.n }

// Len returns the sequence length T.
func (u *UXS) Len() int { return u.length }

// Offset returns s_i, the i-th raw offset (i in [0, Len)). Computing it is
// O(1) and needs no table, so robot memory stays logarithmic.
func (u *UXS) Offset(i int) uint64 {
	return splitmix(u.seed ^ (uint64(i)+1)*0xBF58476D1CE4E5B9)
}

// NextPort returns the exit port for step i at a node of the given degree,
// entered through port entry (use -1 at the very first step; the paper's
// convention is entry port 0). Degree must be positive: the graphs are
// connected with n >= 2, so every node has a neighbor.
func (u *UXS) NextPort(i, entry, degree int) int {
	if degree <= 0 {
		panic("uxs: NextPort at isolated node")
	}
	if entry < 0 {
		entry = 0
	}
	return (entry + int(u.Offset(i)%uint64(degree))) % degree
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
