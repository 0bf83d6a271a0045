#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#   bash qsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -o "$build/qsbench" .)
exec "$build/qsbench" -dir "$here" -out "$build" "$@"
