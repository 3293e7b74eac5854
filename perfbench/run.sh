#!/usr/bin/env bash
# Builds the benchmark driver and convoyd from this checkout's sources, then
# runs one workload:
#
#   bash perfbench/run.sh --workload batch-lsm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the working directory (Go build cache included).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$build/bin"

# A checkout without the repository's sources cannot build; fail before
# any result line is printed.
(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/convoyd" repro/cmd/convoyd) >&2

exec "$build/bin/perfbench" -convoyd "$build/bin/convoyd" -work "$build/work" "$@"
