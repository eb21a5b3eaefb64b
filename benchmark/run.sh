#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build and the run write stays inside the checkout:
# the Go build cache and temporary files go to .bench_build/, traces to
# benchmark/out/. Arguments are passed through (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: not a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/julienne-benchmark" ./benchmark
exec "$build/julienne-benchmark" "$@"
