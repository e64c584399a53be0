#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, passing every
# argument through: bash bench/run.sh --workload live_tcp --seed 3 ...
# Everything go writes (build cache, telemetry, env file) stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With a fresh HOME the go command starts a detached telemetry child
# that outlives it. The mode file is the only switch (GOTELEMETRY
# cannot be set from the environment); no run may leave a process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
