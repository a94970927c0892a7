package runner

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestJobResultDeterminismBoundary pins the package-level allowlist that
// repolint's detsource analyzer encodes: internal/runner may read the
// wall clock (runner.go's time.Now calls around Run and runOne), because
// every wall-clock-derived value lands in fields that the determinism
// gates never hash or diff — JobResult.Elapsed and Stats.Wall/Stats.Work,
// which the CLIs only print under -times and which stripTiming removes
// before cross-worker comparison.
//
// The test enforces the boundary structurally, so it fails the moment
// someone routes timing into the deterministic payload:
//
//  1. the wall-clock fields of JobResult and Stats are exactly the known
//     allowlist (a new Duration field must be added here, consciously);
//  2. sim.Result — the payload the golden hashes and byte-diff gates
//     consume — contains no time-typed field at any depth;
//  3. stripTiming's output is invariant across worker counts even when
//     per-job wall times differ wildly (the existing cross-worker test
//     covers equality; here we additionally pin that Elapsed is the ONLY
//     field it needed to strip).
func TestJobResultDeterminismBoundary(t *testing.T) {
	if got, want := timeFields(reflect.TypeOf(JobResult{})), []string{"Elapsed"}; !reflect.DeepEqual(got, want) {
		t.Errorf("JobResult wall-clock fields %v, allowlist %v: update stripTiming, the CLIs' -times handling, and this test together", got, want)
	}
	if got, want := timeFields(reflect.TypeOf(Stats{})), []string{"Wall", "Work"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Stats wall-clock fields %v, allowlist %v: update the CLIs' -times handling and this test together", got, want)
	}
	if got := timeFields(reflect.TypeOf(sim.Result{})); len(got) != 0 {
		t.Errorf("sim.Result carries wall-clock fields %v: the golden/diff gates would hash real time", got)
	}

	// A deliberately skewed batch: job 0 simulates far longer than job 1,
	// so Elapsed is guaranteed to differ between them and between runs.
	// After stripping the allowlisted field, results must be bit-equal
	// across worker counts AND across repeated runs.
	jobs := gatherJobs(6, true)
	ref, _ := New(1).Run(99, jobs)
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, _ := New(workers).Run(99, gatherJobs(6, true))
		if !reflect.DeepEqual(stripTiming(ref), stripTiming(got)) {
			t.Errorf("workers=%d: stripping the allowlisted wall-clock fields did not make results deterministic", workers)
		}
	}
	// stripTiming must zero exactly the allowlist: a JobResult with only
	// Elapsed set strips to the zero value.
	probe := []JobResult{{Elapsed: 123 * time.Millisecond}}
	if !reflect.DeepEqual(stripTiming(probe), []JobResult{{}}) {
		t.Error("stripTiming(probe) did not reduce a timing-only JobResult to the zero value")
	}
}

// timeFields returns the names of fields (recursing through structs,
// slices, and pointers) whose type is time.Time or time.Duration, in
// declaration order.
func timeFields(t reflect.Type) []string {
	var out []string
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, prefix string)
	walk = func(t reflect.Type, prefix string) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem(), prefix)
		case reflect.Struct:
			if seen[t] {
				return
			}
			seen[t] = true
			if t == reflect.TypeOf(time.Time{}) {
				return
			}
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				name := prefix + f.Name
				if f.Type == reflect.TypeOf(time.Duration(0)) || f.Type == reflect.TypeOf(time.Time{}) {
					out = append(out, name)
					continue
				}
				walk(f.Type, name+".")
			}
		}
	}
	walk(t, "")
	return out
}
