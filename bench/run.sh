#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source and runs one
# workload, `bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1`.
# Everything the Go toolchain writes (binary, compile cache, temporary and
# configuration files) goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the simulator's source is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go command otherwise starts a detached telemetry child on its first use
# of a fresh configuration directory, which outlives this script.
echo off >"$build/config/go/telemetry/mode"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/bench" ./bench >&2
# Slices at quarter size (30 to 90 host ms each): the window BENCHMARK.json
# asks for then holds some hundreds of them, and the 40 a window must have
# fit several times over on the slowest workload too.
exec "$build/bench" run -scale 0.25 "$@"
