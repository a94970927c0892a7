#!/usr/bin/env bash
# Builds sweepd, experiments and perfbench from this checkout's source into
# .bench_build/, then runs perfbench with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-faster --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh spread -runs 10 sweep-faster
#
# Every file the build writes (compiler cache, temporaries, binaries) stays
# under .bench_build/, and the toolchain is kept offline.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bin/" ./cmd/sweepd ./cmd/experiments
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
