#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload azure-rack-cxl --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache and the binary live
# under .bench_build/, so nothing is written outside the checkout. The
# build fails (non-zero exit, no result line) when the simulator sources
# are missing next to bench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$out/trenvbench" .)
exec "$out/trenvbench" "$@"
