#!/bin/sh
# Repo-wide gate: vet, lint (authlint + optional staticcheck/
# govulncheck), build, and race-test everything.
# Run from the repo root (make check does).
set -eu

# Build outputs and the bench smokes go to a temporary directory: the
# tracked BENCH_*.json hold full runs, and a check must leave the tree
# as it found it.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== authlint (invariant analyzers) =="
go run ./cmd/authlint ./...

# The standalone loader skips _test.go files; go vet hands the
# analyzers every test file too, as CI's vettool step does.
echo "== authlint as vettool (test files included) =="
go build -o "$tmp/authlint" ./cmd/authlint
go vet -vettool="$tmp/authlint" ./...

echo "== authlint latency budget (suite < 250ms) =="
sh scripts/lint_budget.sh 250

echo "== staticcheck (if installed) =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== govulncheck (if installed) =="
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping"
fi

echo "== go test -race =="
go test -race ./...

echo "== benchmark harness tests (nested module: one tiny run, recovery and compaction included) =="
(cd perfbench && go test -count=1 ./...)

echo "== wal recovery tests =="
go test -count=1 -run 'TestKillMidWriteEveryTruncation|TestCorruptCRC|TestReplayIdempotence' ./internal/wal/
go test -count=1 -run 'TestDurableCrashRecoveryTruncationSweep|TestDurableCompactionUnderVerifyTraffic' .

echo "== chaos tests (fault injection, fixed seed) =="
go test -race -count=1 -run 'Chaos' .

echo "== wal replay fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s ./internal/wal/

# Each wire input waits on a net.Pipe and the server's idle deadline,
# so minimizing one new input would spend the whole smoke; a failing
# input is still written to testdata/fuzz, just not minimized.
echo "== wire server fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzWireServer$' -fuzztime 5s -fuzzminimizetime 0 ./internal/auth/

echo "== wire v2 fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzWireServerV2$' -fuzztime 5s -fuzzminimizetime 0 ./internal/auth/

echo "== wire codec fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzDecoders$' -fuzztime 5s ./internal/wire/

echo "== wire v2 zero-alloc gate =="
go test -count=1 -run 'TestVerifyPathZeroAlloc' ./internal/wire/

smoke="$tmp/smoke.json"

echo "== wire bench smoke (fixed 50 iterations) =="
sh scripts/bench_wire.sh 50 "$smoke"

echo "== cluster replication and failover (race) =="
go test -race -count=1 -run 'TestReplicationAndFollowerReads|TestPrimaryWithoutQuorumCannotAck|TestFailoverPromotesSuccessor|TestFollowerResyncAfterPartition|TestDeposedPrimaryStepsDownOnHigherTerm' ./internal/cluster/

echo "== cluster bench smoke (fixed 100 iterations) =="
sh scripts/bench_cluster.sh 100 "$smoke"

echo "check: all green"
