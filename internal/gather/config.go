package gather

import (
	"repro/internal/mapping"
	"repro/internal/uxs"
)

// Config carries the run-wide parameters every robot derives from n. All
// robots of a run must share one Config, mirroring the paper's assumption
// that schedules are computable from common knowledge.
type Config struct {
	// UXSMode selects scaled (default) or paper-faithful sequence lengths.
	UXSMode uxs.Mode
	// UXSLen overrides the UXS length when positive, so tests can run
	// short sequences. Zero, the value every run path uses, means T =
	// uxs.Length(UXSMode, n): the paper's T, computed from n alone.
	UXSLen int
	// KnownMaxDegree, when positive, is the paper's Remark 14 ablation:
	// robots know Δ and size hop-meeting cycles as Σ 2Δ^j instead of
	// Σ 2(n-1)^j.
	KnownMaxDegree int
	// KnownDistance, when positive (1..5), is the paper's Remark 13
	// ablation: robots know the smallest pairwise distance i in the
	// initial configuration and Faster-Gathering jumps directly to the
	// step handling it. Zero disables the oracle.
	KnownDistance int
}

// UXSLength returns the exploration-sequence length T for this config.
func (c Config) UXSLength(n int) int {
	if c.UXSLen > 0 {
		return c.UXSLen
	}
	return uxs.Length(c.UXSMode, n)
}

// R1 returns the Phase 1 (map finding) budget of Undispersed-Gathering,
// the paper's R₁ = O(n³).
func R1(n int) int { return mapping.Budget(n) }

// R returns the full Undispersed-Gathering budget, the paper's
// R = R₁ + 2n ∈ O(n³).
func R(n int) int { return satAdd(R1(n), 2*n) }

// satCap bounds every derived schedule quantity. All budget arithmetic in
// this file saturates here instead of wrapping, so million-node configs
// (where the paper's polynomial bounds exceed int range) keep positive
// round caps; the clamp is far past any simulable horizon.
const satCap = 1 << 60

// satAdd adds non-negative budgets, saturating at satCap.
func satAdd(a, b int) int {
	if s := a + b; s <= satCap {
		return s
	}
	return satCap
}

// satMul multiplies non-negative budgets, saturating at satCap.
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}

// CycleT returns T(i) = Σ_{j=1..i} 2·(deg)^j, the length of one
// i-Hop-Meeting cycle, where deg = n-1 by default or Δ under the Remark 14
// ablation. It upper-bounds the DFS enumeration of all port sequences of
// length ≤ i from any node.
func (c Config) CycleT(i, n int) int {
	deg := n - 1
	if c.KnownMaxDegree > 0 {
		deg = c.KnownMaxDegree
	}
	if deg < 1 {
		deg = 1
	}
	total := 0
	pow := 1
	for j := 1; j <= i; j++ {
		pow = satMul(pow, deg)
		total = satAdd(total, satMul(2, pow))
	}
	if total < 2 {
		total = 2
	}
	return total
}

// HopDuration returns the full duration of the i-Hop-Meeting procedure:
// one cycle per ID bit, over the shared bit budget B(n). This is the
// paper's O(nⁱ log n) of Lemma 10.
func (c Config) HopDuration(i, n int) int { return satMul(c.CycleT(i, n), BitBudget(n)) }

// UXSPhaseLen returns 2T, the length of one bit-phase of the §2.1
// algorithm.
func (c Config) UXSPhaseLen(n int) int { return satMul(2, c.UXSLength(n)) }

// UXSGatherBound returns an upper bound on the total duration of the §2.1
// algorithm: one 2T phase per bit of the largest possible ID, the final 2T
// wait, plus one round for the termination step. Theorem 6's O(T log L).
func (c Config) UXSGatherBound(n int) int {
	return satAdd(satMul(c.UXSPhaseLen(n), BitBudget(n)+1), 1)
}

// FasterBound returns an upper bound on the total duration of
// Faster-Gathering: the sum of all seven steps (six with their +1
// detection boundary rounds). Only meaningful when it fits the simulation
// budget; callers cap it.
func (c Config) FasterBound(n int) int {
	total := R(n) + 1
	for i := 2; i <= 6; i++ {
		total = satAdd(total, satAdd(c.HopDuration(i-1, n), R(n)+1))
	}
	return satAdd(total, c.UXSGatherBound(n))
}
