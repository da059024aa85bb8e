#!/usr/bin/env bash
# Builds the fpsping benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload routed-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, span logs, result
# files) stays under .bench_build/ in the checkout root. Build output goes
# to stderr so that the last line of stdout is the result object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The build runs in the background so that SIGINT/SIGTERM can stop it and
# wait for it before this script exits.
go -C "$root/perfbench" build -o "$out/fpsbench" . >&2 &
build=$!
trap 'kill "$build" 2>/dev/null; wait "$build"; exit 130' INT TERM
wait "$build"
trap - INT TERM
cd "$root"
exec "$out/fpsbench" "$@"
