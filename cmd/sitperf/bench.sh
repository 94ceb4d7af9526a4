#!/usr/bin/env bash
# Builds sitperf from source and runs it with the given arguments, e.g.
#
#   bash cmd/sitperf/bench.sh --workload fresh --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go's build cache, the binary, cached query corpora, span files) goes to
# .bench_build under the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOPROXY=off

go -C "$root/cmd/sitperf" build -o "$build/sitperf" .
exec "$build/sitperf" -cache "$build/corpus" -out "$build/spans" "$@"
