#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the root of a cardnet
# checkout: bash perfbench/run.sh --workload point-fresh --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout; the Go toolchain runs offline with the local toolchain.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --root "$root" "$@"
