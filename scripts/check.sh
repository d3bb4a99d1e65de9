#!/bin/sh
# Repo-wide gate: vet, lint (authlint + optional staticcheck/
# govulncheck), build, and race-test everything.
# Run from the repo root (make check does).
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== authlint (invariant analyzers) =="
go run ./cmd/authlint ./...

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

echo "== wire server fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzWireServer$' -fuzztime 5s ./internal/auth/

echo "== wire v2 fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzWireServerV2$' -fuzztime 5s ./internal/auth/

echo "== wire v2 zero-alloc gate =="
go test -count=1 -run 'TestVerifyPathZeroAlloc' ./internal/wire/

# The bench smokes write to a temporary file: the tracked BENCH_*.json
# hold full runs, and a check must leave the tree as it found it.
smoke="$(mktemp)"
trap 'rm -f "$smoke"' EXIT

echo "== wire bench smoke (fixed 50 iterations) =="
sh scripts/bench_wire.sh 50 "$smoke"

echo "== cluster replication and failover (race) =="
go test -race -count=1 -run 'TestReplicationAndFollowerReads|TestPrimaryWithoutQuorumCannotAck|TestFailoverPromotesSuccessor|TestFollowerResyncAfterPartition|TestDeposedPrimaryStepsDownOnHigherTerm' ./internal/cluster/

echo "== cluster bench smoke (fixed 100 iterations) =="
sh scripts/bench_cluster.sh 100 "$smoke"

echo "check: all green"
