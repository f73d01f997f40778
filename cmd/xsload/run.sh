#!/usr/bin/env bash
# Builds the xsload benchmark from this checkout and runs it from the
# checkout's root with the given arguments (xsload builds xmlsecd
# itself). Every build and run artifact stays under .bench_build/ in the
# checkout, and nothing is fetched from the network.
#
#   bash cmd/xsload/run.sh --workload hot-read --seed 1 --seconds 12 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's settings and telemetry files
# inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/bin/xsload" .)
cd "$root"
exec "$build/bin/xsload" -out "$build/xsload" "$@"
