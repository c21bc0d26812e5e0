#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source with
# every toolchain cache inside the checkout, then hands over to it:
#
#   bash bench/run.sh --workload warm_zipf --seed 1 --seconds 10 --trace 0
#
# Run from the root of a medrelax checkout; anywhere else it exits non-zero
# without printing a result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/kbserver ] || [ ! -f bench/main.go ]; then
	echo "bench: run from the root of a medrelax checkout (go.mod, cmd/kbserver and bench/ expected in $(pwd))" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
# The go command writes its build cache, module cache and telemetry under
# $HOME unless told otherwise; keep all of it in the checkout.
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
