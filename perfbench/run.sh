#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload repeat-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary live under .bench_build/
# in the checkout, so nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
