package gather

import (
	"testing"

	"repro/internal/uxs"
)

// TestBudgetsSaturatePositive pins the million-node contract: every
// derived schedule quantity stays positive at scale sizes where the
// paper's polynomial bounds exceed int range — the budgets saturate at
// satCap instead of wrapping negative (which would crash WithLength and
// zero out the algorithms' round caps).
func TestBudgetsSaturatePositive(t *testing.T) {
	for _, cfg := range []Config{{}, {UXSMode: uxs.Faithful}, {KnownMaxDegree: 8}} {
		for _, n := range []int{1 << 20, 1 << 22, 1 << 24} {
			checks := []struct {
				name string
				v    int
			}{
				{"R1", R1(n)},
				{"R", R(n)},
				{"BitBudget", BitBudget(n)},
				{"UXSLength", cfg.UXSLength(n)},
				{"UXSPhaseLen", cfg.UXSPhaseLen(n)},
				{"UXSGatherBound", cfg.UXSGatherBound(n)},
				{"CycleT(5)", cfg.CycleT(5, n)},
				{"HopDuration(5)", cfg.HopDuration(5, n)},
				{"FasterBound", cfg.FasterBound(n)},
			}
			for _, c := range checks {
				if c.v <= 0 {
					t.Errorf("cfg %+v n=%d: %s = %d, want positive", cfg, n, c.name, c.v)
				}
			}
		}
	}
	// Below the cap the arithmetic must stay exact: the clamp may not
	// perturb any budget a real run uses.
	if got, want := R(100), R1(100)+200; got != want {
		t.Fatalf("R(100) = %d, want exact %d", got, want)
	}
	if got := uxs.Length(uxs.Scaled, 100); got != 8*100*100*100 {
		t.Fatalf("uxs.Length(Scaled, 100) = %d, want exact 8e6", got)
	}
}
