#!/usr/bin/env bash
# Builds the suite benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fine.S --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, span files) stays under
# $CARGO_TARGET_DIR, or .bench_build when that is unset, inside the
# current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
