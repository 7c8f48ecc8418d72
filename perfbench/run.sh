#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload train-sprint --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache stay in .bench_build/ inside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
