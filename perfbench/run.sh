#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The
# build output, the Go build cache and the toolchain's own state and
# temporary files all stay under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload node-auth --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
