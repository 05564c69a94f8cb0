#!/usr/bin/env bash
# Builds the benchmark from the repository checkout it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spec-decode --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seconds 10   # every table, one command
#
# Everything it writes (Go build cache, binary, spans, profiles) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. It fails
# without running anything when the program's sources are not there.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the program's sources (go.mod, internal/) are missing" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/pprof"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export XDG_CONFIG_HOME=$build/config PPROF_TMPDIR=$build/pprof
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
