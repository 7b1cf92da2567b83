#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload olap-star --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout: the Go build cache and the binary under .bench_build, the
# data directories and span files under .bench_data.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# The module needs nothing beyond the standard library and the parent
# module, so the build never has to fetch anything.
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -data "$root/.bench_data" "$@"
