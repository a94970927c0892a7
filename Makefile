# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

.PHONY: all build test race lint examples bench-smoke bench-ledger sweepd-gate perfbench

all: build lint test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The repo's own static-analysis suite (DESIGN.md §5, "Statically
# enforced contracts"): nomapiter, detsource, frozenwrite,
# resetcomplete. Runs `go vet` as a subprocess, so this is the one
# lint entry point.
lint:
	go run ./cmd/repolint ./...

# Run every example to completion; each must exit 0. `go build` compiles
# them but runs none, and they pick algorithms by name, so a misspelt name
# compiles and fails only here.
examples:
	@for d in examples/*/; do echo "== $$d"; go run "./$$d" > /dev/null || exit 1; done

# The allocation gates CI enforces, runnable locally; failures echo the
# offending benchmark line (scripts/benchgate.awk).
bench-smoke:
	go test -run '^$$' -bench 'StepHotLoop|OverlayChurnStep|NeighborWalk|WorldReset|SweepPooledWorld' -benchtime 1x . > /tmp/bench-smoke.txt
	@cat /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkStepHotLoop' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkOverlayChurnStep' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkWorldReset' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkNeighborWalk' -v want=3 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=ratio -v num='^BenchmarkSweepPooledWorld/pooled' -v den='^BenchmarkSweepPooledWorld/rebuild' -v factor=5 /tmp/bench-smoke.txt

# Diff the perf benchmark set against the last entry of the append-only
# ledger (bench/LEDGER.ndjson). The slow million-node suite (BuildDirect,
# MemoryFootprint) is deliberately not run here — CI's perf job runs it —
# so the gate's skip list excuses exactly those ledger entries; any other
# missing benchmark still fails. To record a new entry after a deliberate
# perf change:
#   awk -f scripts/benchledger.awk -v mode=append -v label=PRn \
#       /tmp/bench-ledger.txt >> bench/LEDGER.ndjson
bench-ledger:
	go test -run '^$$' -bench 'StepHotLoop|OverlayChurnStep|NeighborWalk|SweepSharedGraph|WorldReset|SweepPooledWorld|RunnerSerialVsParallel|FasterGatheringManyRobots' -benchtime 100ms . > /tmp/bench-ledger.txt
	@cat /tmp/bench-ledger.txt
	awk -f scripts/benchledger.awk -v mode=gate -v factor=3 -v skip='^BenchmarkBuildDirect/|^BenchmarkMemoryFootprint$$' bench/LEDGER.ndjson /tmp/bench-ledger.txt

# The sweep service conformance gate: sweepd's bytes must equal the CLI's
# on the golden sweep, and a repeat must be a cache hit. The script stops
# the sweepd it starts on every exit path.
sweepd-gate:
	bash scripts/sweepd_gate.sh

# The end-to-end benchmark module's vet and tests, plus a 5-second smoke
# of every BENCHMARK.json workload that must report "correct":true.
perfbench:
	bash scripts/perfbench_smoke.sh
