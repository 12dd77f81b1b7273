#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build bench/ from source
# into .bench_build/ inside the checkout, then run it with the caller's
# arguments. Everything go writes (build cache, module cache, the binary)
# stays under .bench_build/, and nothing is downloaded.
set -euo pipefail
root="$(pwd)"
[ -f "$root/bench/go.mod" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/cameo-bench" .
exec "$build/cameo-bench" "$@"
