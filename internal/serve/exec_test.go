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
