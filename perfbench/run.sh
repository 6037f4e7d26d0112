#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload dynamic-sched --seed 1 --seconds 10 --trace 0
#
# All build state (compiler cache, module cache, binary) and the traced
# run's span dump stay under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans-out "$out/spans.json" "$@"
