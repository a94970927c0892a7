package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: started with
// "gathersim" as its first argument, the test binary runs gathersim on
// the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gathersim" {
		os.Args = os.Args[1:]
		os.Exit(gathersim())
	}
	os.Exit(m.Run())
}

// runGathersim runs the command in a child process and returns its
// stdout and stderr.
func runGathersim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"gathersim"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("gathersim %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// Under -ndjson, -phases reports on stderr: stdout stays the NDJSON body,
// byte for byte what it is without -phases. Elsewhere the report goes to
// stdout with the rest of the output.
func TestPhasesReport(t *testing.T) {
	sweep := []string{"-workload", "grid:3x4", "-k", "7", "-seeds", "2"}
	ndjson := append([]string{"-ndjson"}, sweep...)
	plain, _ := runGathersim(t, ndjson...)
	out, errOut := runGathersim(t, append(ndjson, "-phases")...)
	if out != plain {
		t.Errorf("-phases changed the NDJSON body:\n got  %q\n want %q", out, plain)
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("stdout line is not JSON: %q", line)
		}
	}
	for _, want := range []string{"stepped rounds ", "engine phases ("} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut)
		}
	}
	out, _ = runGathersim(t, append(sweep, "-phases", "-times=false")...)
	for _, want := range []string{"stepped rounds ", "engine phases ("} {
		if !strings.Contains(out, want) {
			t.Errorf("table output lacks %q:\n%s", want, out)
		}
	}
}
