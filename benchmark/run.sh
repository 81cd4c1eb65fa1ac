#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given; this
# is the command BENCHMARK.json declares. Everything the go tool writes — its
# build cache and scratch directory included — stays under .bench_build at the
# root of the checkout, and nothing is fetched. The first call in a fresh checkout compiles the
# standard library too; later calls find the build cached.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" "$@"
