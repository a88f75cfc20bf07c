#!/usr/bin/env bash
# Builds promobench and runs it with the given flags. Run it from the
# repository root:
#
#   bash bench/run.sh --workload serve-tail --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binaries and the traces all go to .bench_build
# in the repository root, so nothing is read or written outside it, and
# the toolchain never reaches for the network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C bench build -o "$build/promobench" ./promobench
exec "$build/promobench" "$@"
