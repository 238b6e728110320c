#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given flags. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload dns-crawl --seed 1 --seconds 30 --trace 0
#
# Everything the go command writes stays in .bench_build/ at the root: the
# build cache, the binary, and (through XDG_CONFIG_HOME) its telemetry
# counters. No module is fetched: perfbench needs only the repository's own
# module.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local \
	GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
