#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build writes (compiled
# packages, module cache, the toolchain's own counters) stays inside
# .bench_build/ as well.
#
#   bash bench/run.sh --workload online --seed 7 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The commit is stamped by hand: a driver's checkout is not a git
# repository, and git must not go looking for one above it.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
# bench/ is a module of its own (stsmatch/bench) that replaces stsmatch
# with the parent directory, so without the program's sources beside it
# this build fails and nothing is run.
(cd bench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/stsbench" .)
exec "$build/stsbench" "$@"
