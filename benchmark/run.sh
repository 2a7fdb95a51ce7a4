#!/bin/sh
# Builds the benchmark and runs it from the repository root, keeping the
# Go build cache and every build output inside .bench_build:
#
#   sh benchmark/run.sh --workload ingest-mem --seed 1 --seconds 24 --trace 0
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
GOCACHE="$root/.bench_build/gocache"
GOTOOLCHAIN=local
GOPROXY=off
export GOCACHE GOTOOLCHAIN GOPROXY
go -C benchmark build -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
