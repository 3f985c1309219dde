#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload dag-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build at the repository root. The
# binary runs as a child of this script rather than replacing it, so its
# rusage of waited-for children covers only its own worker processes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
# Fall back to the official distribution's default install location when
# go is not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

go -C "$here" build -o "$out/perfbench" .
cd "$root"
status=0
"$out/perfbench" "$@" || status=$?
exit "$status"
