#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files, the binary, gateway stores and span
# files all stay under .bench_build in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
