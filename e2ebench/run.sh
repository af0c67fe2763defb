#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload classic_warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, span files) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

if ! go build -C "$root/e2ebench" -o "$out/e2ebench" . >&2; then
	echo "e2ebench: build failed (run from the repository root, which must hold the swole module)" >&2
	exit 2
fi
exec "$out/e2ebench" "$@"
