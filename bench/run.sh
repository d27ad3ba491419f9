#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout: `bash bench/run.sh --workload mem-paper-olc --seed 1 --seconds 16 --trace 0`.
# Everything the build and the run write stays under ./.bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/btbench" .)
exec "$out/btbench" "$@"
