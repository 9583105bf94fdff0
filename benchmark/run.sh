#!/usr/bin/env bash
# Builds the stack benchmark inside the checkout and runs it with the
# given arguments: the command of BENCHMARK.json. Everything the build
# writes (the binary, the Go build cache) stays under .bench_build at
# the root of the checkout, and later calls reuse it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/stackbench" .)
cd "$root"
exec "$build/stackbench" "$@"
