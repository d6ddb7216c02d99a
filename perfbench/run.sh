#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fattree-crosspod --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, temporary files and the session
# store. The build fails, and so does the benchmark, when the program's
# sources are not beside this directory.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -tmp-root "$out/tmp" "$@"
