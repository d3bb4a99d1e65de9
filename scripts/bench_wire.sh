#!/bin/sh
# Regenerates BENCH_wire.json from BenchmarkWireTxPerConn.
#
# Challenge pairs burn forever in the no-reuse registry, so the bench
# runs a fixed iteration count (-benchtime Nx), never wall time: a
# time-based count on a fast machine could exhaust the pair space
# mid-run. 1000 iterations keeps every variant under ~15% of one
# plane's pair budget.
#
#   scripts/bench_wire.sh              # full run, 1000 iterations
#   scripts/bench_wire.sh 50 out.json  # smoke run into out.json (check.sh)
#
# The optional second argument is the output path; it defaults to the
# tracked BENCH_wire.json.
#
# Run from the repo root (make bench-wire and scripts/check.sh do).
set -eu

iters="${1:-1000}"
out="${2:-BENCH_wire.json}"

raw="$(go test -run '^$' -bench BenchmarkWireTxPerConn \
	-benchtime "${iters}x" -count=1 ./internal/auth/)"
printf '%s\n' "$raw"

# Each bench line looks like:
#   BenchmarkWireTxPerConn/local/v2/depth=1  1000  105263 ns/op  9500 tx/s
printf '%s\n' "$raw" | awk -v iters="$iters" '
/^BenchmarkWireTxPerConn\// {
	sub(/^BenchmarkWireTxPerConn\//, "", $1)
	# Strip the trailing -N GOMAXPROCS suffix if present.
	sub(/-[0-9]+$/, "", $1)
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "tx/s") tx = $i
	}
	lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"tx_per_sec\": %s}", $1, ns, tx)
}
END {
	if (n == 0) { print "bench_wire: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchmark\": \"BenchmarkWireTxPerConn\",\n"
	printf "  \"iterations\": %d,\n", iters
	print "  \"results\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
	print "  ]"
	print "}"
}' >"$out"

echo "bench_wire: wrote $out"
