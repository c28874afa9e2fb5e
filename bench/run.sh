#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it; every argument is passed on. Run from the root:
#
#   bash bench/run.sh --workload serve-drift-iris --seed 1 --seconds 20 --trace 0
#
# Nothing is read or written outside the checkout. bench/ is a module of its own (it imports
# the repository's internal packages through a replace directive), so the
# repository's go.mod, vet and lint runs do not see it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout that holds the repository's sources" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go command might write goes under .bench_build/: the build
# cache, the (empty) module cache, and its telemetry counters, which follow
# XDG_CONFIG_HOME. GOENV=off keeps it from reading the user's go env file.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export BENCH_COMMIT
(cd "$root/bench" && go build -buildvcs=false -o "$build/olivebench" .)
exec "$build/olivebench" "$@"
