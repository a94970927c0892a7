package gather

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/fault"
)

// The fault-path golden suite: one hash per (algorithm, adversary) over
// the same fixed instance grid as the engine goldens, pinning every new
// fault path — permanent crash, crash-recovery, Byzantine corruption and
// connectivity-preserving churn — bit-for-bit. Runs that legitimately
// panic under an adversary (a Byzantine payload can drive an algorithm
// into an impossible protocol state) are hashed by their contained error
// text, so even the failure mode is pinned.
//
// Regenerate with:
//
//	GOLDEN_PRINT=1 go test ./internal/gather -run TestFaultGolden -v
//
// (hopmeet's byz and churn hashes legitimately equal its fault-free
// baseline on this grid: hopmeet never reads co-located card contents or
// messages, and its short radius-bounded walks never cross the churned
// non-tree edges of these instances — the golden pins that insensitivity.)
var faultGolden = map[string]uint64{
	"faster/crash:1@3":          0x18aeeb72e4bc3dfb,
	"faster/recover:1,6@3":      0xfe5d7734eeee5441,
	"faster/byz:1":              0x646a41af798a8136,
	"faster/churn":              0x3ce50b28441c3d63,
	"uxs/crash:1@3":             0x21566d30ea8cbbcb,
	"uxs/recover:1,6@3":         0xddb74fa186805910,
	"uxs/byz:1":                 0xb845827cb545c9c,
	"uxs/churn":                 0x4ab35e0616a3637f,
	"undispersed/crash:1@3":     0xccc641385cdc31e8,
	"undispersed/recover:1,6@3": 0xea11342e067d12d2,
	"undispersed/byz:1":         0x9997ba836d6561da,
	"undispersed/churn":         0x2c13a5039e0bb4d4,
	"hopmeet/crash:1@3":         0x34e370d5b823739e,
	"hopmeet/recover:1,6@3":     0xb3b6476547638f71,
	"hopmeet/byz:1":             0xc32a4dbf6e860041,
	"hopmeet/churn":             0xc32a4dbf6e860041,
}

// The golden plans derive their streams through the same salts the sweep
// executors use (faults.go), so a golden instance is replayable through
// any surface.
const (
	faultSeedSalt = FaultSeedSalt
	churnSeedSalt = ChurnSeedSalt
)

const goldenChurnRate = 0.15

// runFaultOutcome executes one faulted run and returns its printable
// outcome (result, or contained panic error). The fault plan is drawn from
// planSeed and the churn overlay from churnSeed, both salted. A nil arena
// builds the world and the overlay fresh; otherwise both come from the
// arena, exactly as a sweep worker builds them.
func runFaultOutcome(t *testing.T, sc *Scenario, algo, spec string, churn float64, planSeed, churnSeed uint64, arena *Arena) string {
	t.Helper()
	w, cap := buildGoldenWorldIn(t, sc, algo, arena)
	installFaults(t, sc, w, arena, spec, churn, cap, planSeed, churnSeed)
	res, err := w.SafeRun(cap)
	return fmt.Sprintf("%+v err=%v", res, err)
}

// installFaults materializes the fault plan of planSeed and installs it,
// plus the churn overlay of churnSeed when churn > 0, on the world. The
// overlay comes from the arena, or is built fresh when arena is nil.
func installFaults(t *testing.T, sc *Scenario, w *sim.World, arena *Arena, spec string, churn float64, cap int, planSeed, churnSeed uint64) {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := s.Plan(len(sc.IDs), cap, planSeed^faultSeedSalt)
	if err := fault.Apply(w, sc.IDs, plan); err != nil {
		t.Fatal(err)
	}
	if churn > 0 {
		if err := w.SetOverlay(arena.Overlay(sc.G, churn, churnSeed^churnSeedSalt)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultGolden(t *testing.T) {
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet"} {
		for _, adv := range []string{"crash:1@3", "recover:1,6@3", "byz:1", "churn"} {
			algo, adv := algo, adv
			t.Run(algo+"/"+adv, func(t *testing.T) {
				spec, churn := adv, 0.0
				if adv == "churn" {
					spec, churn = "none", goldenChurnRate
				}
				h := fnv.New64a()
				for i, sc := range goldenInstances(algo) {
					fmt.Fprintf(h, "%s;", runFaultOutcome(t, sc, algo, spec, churn, uint64(i+1), uint64(i+1), nil))
				}
				got := h.Sum64()
				if os.Getenv("GOLDEN_PRINT") != "" {
					t.Logf("fault golden %q: %#x", algo+"/"+adv, got)
					return
				}
				want, ok := faultGolden[algo+"/"+adv]
				if !ok {
					t.Fatalf("no golden hash recorded for %q", algo+"/"+adv)
				}
				if got != want {
					t.Errorf("fault-path drift: %s hash = %#x, want %#x", algo+"/"+adv, got, want)
				}
			})
		}
	}
}

// TestFaultScalarBatchEquivalence pins every fault path on the sweep
// path: a batch of faulted runs on one worker's Arena — pooled
// world, pooled agents, pooled churn overlay — must reproduce each run's
// fresh scalar twin exactly (same results, or same contained panic
// payload). Like a sweep's rows, each instance runs several fault plans
// in a row over one churn overlay, so every run after the first
// re-enters a world, agents and overlay that other victims dirtied.
func TestFaultScalarBatchEquivalence(t *testing.T) {
	for _, adv := range []string{"crash:1@3", "recover:1,6@3", "byz:1", "churn"} {
		for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet"} {
			algo, adv := algo, adv
			t.Run(algo+"/"+adv, func(t *testing.T) {
				spec, churn := adv, 0.0
				if adv == "churn" {
					spec, churn = "none", goldenChurnRate
				}
				arena := NewArena()
				for i, sc := range goldenInstances(algo)[:6] {
					inst := uint64(i + 1)
					scalar := map[uint64]string{}
					for _, plan := range []uint64{inst, 100 + inst, inst} {
						if _, ok := scalar[plan]; !ok {
							scalar[plan] = runFaultOutcome(t, sc, algo, spec, churn, plan, inst, nil)
						}
						if got := runFaultOutcome(t, sc, algo, spec, churn, plan, inst, arena); got != scalar[plan] {
							t.Fatalf("instance %d plan %d under %s:\nscalar %s\n batch %s", i, plan, adv, scalar[plan], got)
						}
					}
				}
			})
		}
	}
}
