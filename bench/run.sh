#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it
# with the given flags, from the repository root:
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (the Go build cache, the binary,
# profiles, spans) goes under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/beaconbench" . >&2
exec "$out/beaconbench" "$@"
