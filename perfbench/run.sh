#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload prm-build --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The toolchain's build cache, temporary
# files and configuration all live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so a run reads and writes
# nothing outside the checkout except the Go toolchain it reads.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out-dir "$build" "$@"
