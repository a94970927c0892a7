#!/usr/bin/env bash
# Sweep service conformance gate: the golden sweep through `gathersim
# -ndjson` and twice through a live sweepd (a cache miss, then a replay)
# must be byte-identical, and /metrics must show the replay was a hit.
# The sweepd it starts is stopped on every exit path, and the gate fails
# rather than test a server it did not start. Run from the repository
# root: `bash scripts/sweepd_gate.sh` (or `make sweepd-gate`).
set -euo pipefail
addr=127.0.0.1:8787
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/gathersim -workload cycle:12 -k 7 -algo dessmark \
	-sched semi:0.5 -seeds 16 -ndjson > "$tmp/cli.ndjson"
go build -o "$tmp/sweepd" ./cmd/sweepd

if curl -sf "http://$addr/healthz" > /dev/null 2>&1; then
	echo "sweepd_gate: a server already answers on $addr; stop it first" >&2
	exit 1
fi
"$tmp/sweepd" -addr "$addr" &
SWEEPD=$!
trap 'kill $SWEEPD 2>/dev/null; wait $SWEEPD 2>/dev/null; rm -rf "$tmp"' EXIT

for i in $(seq 1 50); do
	if ! kill -0 "$SWEEPD" 2>/dev/null; then
		echo "sweepd_gate: sweepd exited before it was ready" >&2
		exit 1
	fi
	curl -sf "http://$addr/healthz" > /dev/null && break
	if [ "$i" = 50 ]; then
		echo "sweepd_gate: sweepd not ready on $addr after 10s" >&2
		exit 1
	fi
	sleep 0.2
done

req='{"workload":"cycle:12","algo":"dessmark","k":7,"sched":"semi:0.5","seed":1,"seeds":16}'
curl -sf --data-binary "$req" "http://$addr/sweep" > "$tmp/srv1.ndjson"
curl -sf --data-binary "$req" "http://$addr/sweep" > "$tmp/srv2.ndjson"
diff "$tmp/cli.ndjson" "$tmp/srv1.ndjson"
diff "$tmp/cli.ndjson" "$tmp/srv2.ndjson"
curl -sf "http://$addr/metrics" | tee "$tmp/metrics.json"
echo
grep -q '"hits":1' "$tmp/metrics.json"
grep -q '"misses":1' "$tmp/metrics.json"
echo "sweepd_gate: service bytes match the CLI; the second response was a cache hit"
