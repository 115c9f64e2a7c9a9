#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind stays inside the checkout: the binary
# and the Go build cache live under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build
go build -C benchmark -o ../.bench_build/lineup-bench .
exec .bench_build/lineup-bench "$@"
