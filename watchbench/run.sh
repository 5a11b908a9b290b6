#!/usr/bin/env bash
# Builds the live watch-path benchmark from source and runs one workload.
# Run it from the repository root, for example:
#
#   bash watchbench/run.sh --workload zipf-local --seed 1 --seconds 50 --trace 0
#
# The build cache, the binary, block files and span files all stay under
# .bench_build/ in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the go command hermetic and inside the checkout: no network, no user
# go.env, and its caches and telemetry under .bench_build/.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd watchbench && go build -o "$out/watchbench" .) >&2
exec "$out/watchbench" -dir "$out/watchbench-run" "$@"
