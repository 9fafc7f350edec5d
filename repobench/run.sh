#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash repobench/run.sh --workload embedded-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the trees' temporary
# files and the run records.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/repobench" && go build -o "$build/repobench" .)
exec "$build/repobench" -root "$root" "$@"
