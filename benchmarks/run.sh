#!/usr/bin/env bash
# Builds the granule benchmark from source and runs it. Everything the
# build and the run write (Go build cache, binary, temp files, campaign
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the checkout too.
export GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/eoml-bench" .)
cd "$root"
exec "$build/eoml-bench" "$@"
