#!/bin/sh
# Regenerates BENCH_cluster.json from BenchmarkClusterAuth (end-to-end
# replicated vs single-node throughput), BenchmarkClusterPrimaryCost
# (the primary's per-issuance serial cost, full vs burn-only — the
# follower read-scaling headroom), and BenchmarkClusterFailover (the
# router's read-path latency distribution with a black-holed owner:
# p50 is the post-detection steady state, p99 the hedged-failover
# transient).
#
# Challenge pairs burn forever in the no-reuse registry, so the bench
# runs a fixed iteration count (-benchtime Nx), never wall time: a
# time-based count on a fast machine could exhaust the hot client's
# pair space mid-run.
#
#   scripts/bench_cluster.sh               # full run, 1000 iterations
#   scripts/bench_cluster.sh 100 out.json  # smoke run into out.json (check.sh)
#
# The optional second argument is the output path; it defaults to the
# tracked BENCH_cluster.json.
#
# Run from the repo root (make bench-cluster and scripts/check.sh do).
set -eu

iters="${1:-1000}"
out="${2:-BENCH_cluster.json}"

raw="$(go test -run '^$' -bench 'BenchmarkClusterAuth|BenchmarkClusterPrimaryCost|BenchmarkClusterFailover' \
	-benchtime "${iters}x" -count=1 ./)"
printf '%s\n' "$raw"

# Each bench line looks like:
#   BenchmarkClusterAuth/replicated-3/primary  1000  785676 ns/op  1273 tx/s
# and the failover bench adds latency-quantile columns:
#   BenchmarkClusterFailover/owner-stalled  1000  ...  1.2 p50_ms  12.6 p99_ms  536 tx/s
printf '%s\n' "$raw" | awk -v iters="$iters" '
/^BenchmarkCluster(Auth|PrimaryCost|Failover)\// {
	p50 = ""; p99 = ""
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "tx/s") tx = $i
		if ($(i+1) == "p50_ms") p50 = $i
		if ($(i+1) == "p99_ms") p99 = $i
	}
	# Strip the trailing -N GOMAXPROCS suffix if present.
	sub(/-[0-9]+$/, "", $1)
	sub(/^Benchmark/, "", $1)
	quant = (p50 != "") ? sprintf(", \"p50_ms\": %s, \"p99_ms\": %s", p50, p99) : ""
	lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"tx_per_sec\": %s%s}", $1, ns, tx, quant)
}
END {
	if (n == 0) { print "bench_cluster: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"iterations\": %d,\n", iters
	print "  \"results\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
	print "  ]"
	print "}"
}' >"$out"

echo "bench_cluster: wrote $out"
