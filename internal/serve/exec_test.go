package serve

import (
	"context"
	"fmt"
	"testing"
)

// TestSweepWorkers pins the worker rule: a sweep runs on
// min(workers, ⌈seeds/8⌉) workers, so small sweeps stay on one CPU.
func TestSweepWorkers(t *testing.T) {
	for _, seeds := range []int{1, 8, 9, 16, 65536} {
		for _, workers := range []int{1, 2, 4} {
			want := min(workers, (seeds+7)/8)
			if got := sweepWorkers(workers, seeds); got != want {
				t.Errorf("sweepWorkers(%d workers, %d seeds) = %d, want %d", workers, seeds, got, want)
			}
		}
	}
}

// TestExecuteAppliesWorkerRule checks that the executor runs a sweep on
// the rule's worker count, not on the configured pool.
func TestExecuteAppliesWorkerRule(t *testing.T) {
	for _, c := range []struct{ seeds, want int }{{8, 1}, {9, 2}, {40, 4}} {
		req, err := ParseSweepRequest([]byte(fmt.Sprintf(`{"workload":"cycle:6","k":2,"seeds":%d,"max_rounds":8}`, c.seeds)))
		if err != nil {
			t.Fatal(err)
		}
		_, results, st, err := Execute(context.Background(), req, ExecConfig{Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != c.seeds || st.Workers != c.want {
			t.Errorf("%d seeds on 4 workers: %d results on %d workers, want %d on %d", c.seeds, len(results), st.Workers, c.seeds, c.want)
		}
	}
}

// TestQuietJumpStepTotals pins, at equality, how many rounds the engine
// steps on three shapes; it jumps the rest while every live robot's
// promise under its view holds. On the sweep-faster shape (grid:3x4,
// k=7, maxmin) each seed simulates 15,115 rounds, almost all of them
// Step 2's Undispersed-Gathering, in which the finder and its token wait
// together at home once the map is done; the 16-seed sweep steps 5,498
// of its 241,840 rounds. The same wait dominates Undispersed-Gathering
// from a clustered start.
// On a serve-mix miss (rreg:256,4, k=32, max_rounds 256) every robot
// waits alone after round 0, so each row steps one round. A change that
// silently turns the jump off fails here exactly, not somewhere in the
// timing noise.
func TestQuietJumpStepTotals(t *testing.T) {
	for _, c := range []struct {
		body            string
		rounds, stepped int64
	}{
		{`{"workload":"grid:3x4","k":7,"seed":1,"seeds":16}`, 16 * 15115, 5498},
		{`{"workload":"grid:3x4","algo":"undispersed","k":7,"placement":"clustered","seeds":16}`, 118992, 4895},
		{`{"workload":"rreg:256,4","k":32,"seed":1,"seeds":8,"max_rounds":256}`, 8 * 256, 8},
	} {
		req, err := ParseSweepRequest([]byte(c.body))
		if err != nil {
			t.Fatal(err)
		}
		_, _, st, err := Execute(context.Background(), req, ExecConfig{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != c.rounds || st.Stepped != c.stepped {
			t.Errorf("%s: stepped %d of %d rounds, want %d of %d", c.body, st.Stepped, st.Rounds, c.stepped, c.rounds)
		}
	}
}
