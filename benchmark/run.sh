#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# ignored by git) and runs it with the driver's arguments. Everything the go
# tool writes -- build cache, module cache, binary -- stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$build/streambench" .)
cd "$root"
exec "$build/streambench" -out "$here/out" "$@"
