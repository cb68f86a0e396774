#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload spec-ref --seed 1 --seconds 20 --trace 0
#
# Every build artefact and cache stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/e2ebench/tmp"
export GOCACHE=$build/e2ebench/gocache
export GOTMPDIR=$build/e2ebench/tmp TMPDIR=$build/e2ebench/tmp
export GOPATH=$build/e2ebench/gopath
export GOMODCACHE=$GOPATH/pkg/mod
export XDG_CONFIG_HOME=$build/e2ebench/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" -trace-dir "$build/e2ebench" "$@"
