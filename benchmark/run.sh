#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it with the
# arguments given; the benchmark driver's command is `bash benchmark/run.sh`,
# from the root of the checkout. Everything the build writes — the binary, the
# Go build cache — goes under .bench_build in that root, nothing outside it.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/ensemble-benchmark" .)
exec "$build/ensemble-benchmark" "$@"
