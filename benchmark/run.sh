#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's source and runs it.
# Everything the toolchain writes — build cache, temporary files, its
# own configuration and counters, the two binaries — stays inside the
# checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/gcaobench" .
exec "$build/gcaobench" -root "$root" "$@"
