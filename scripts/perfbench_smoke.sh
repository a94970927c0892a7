#!/usr/bin/env bash
# perfbench is a module of its own (perfbench/go.mod) built against this
# tree, so a change here can break it without breaking `go build ./...`.
# This vets and tests it, then runs every BENCHMARK.json workload for 5
# seconds; each run's last line must report "correct":true. Run from the
# repository root: `bash scripts/perfbench_smoke.sh` (or `make perfbench`).
set -euo pipefail
(cd perfbench && go vet ./... && go test ./...)
for w in sweep-faster serve-mix experiments; do
	out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 5)
	last=$(printf '%s\n' "$out" | tail -n 1)
	case $last in
	*'"correct":true'*) echo "perfbench_smoke: $w: $last" ;;
	*)
		printf '%s\n' "$out" >&2
		echo "perfbench_smoke: $w did not report \"correct\":true" >&2
		exit 1
		;;
	esac
done
