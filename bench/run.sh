#!/bin/sh
# Entry point of BENCHMARK.json's command. Everything the Go toolchain
# writes — build cache, temporary files, the binaries — stays inside the
# checkout, under bench/.cache and bench/out; run from the repository root.
set -eu
mkdir -p bench/.cache/go-build bench/out/tmp
export GOCACHE="$PWD/bench/.cache/go-build" GOTMPDIR="$PWD/bench/out/tmp" GOMAXPROCS=2
go build -o bench/out/bench ./bench
exec bench/out/bench "$@"
