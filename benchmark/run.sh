#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it sits
# in, then runs it from the checkout's root with the arguments given. The Go
# build cache is kept there too, so a run writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/dnnf-benchmark" .
cd "$root"
exec "$build/dnnf-benchmark" "$@"
