# benchjson.awk — convert `go test -bench` output into a JSON array of
# {name, ns_per_op, allocs_per_op} records. CI runs it over the perf
# trajectory benchmarks and uploads the result as an artifact, so the
# performance record is machine-diffable across PRs.
#
#   awk -f scripts/benchjson.awk bench.txt > BENCH_PR8.json

BEGIN { printf "[" }

/^Benchmark/ {
	ns = "null"
	allocs = "null"
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")
			ns = $(i - 1)
		if ($i == "allocs/op")
			allocs = $(i - 1)
	}
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (n++)
		printf ","
	printf "\n  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs
}

END { print "\n]" }
