#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash tendsbench/run.sh --workload paper-1k --seed 1 --seconds 20 --trace 0
#   bash tendsbench/run.sh compare old.log new.log
#
# Run it from the root of the checkout. Every build product, the Go build
# cache and the benchmark's scratch files stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing outside the checkout is read or written.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/tendsbench" build -o "$out/tendsbench" .
exec "$out/tendsbench" --workdir "$out/work" "$@"
