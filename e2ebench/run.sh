#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the trace files live in
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
