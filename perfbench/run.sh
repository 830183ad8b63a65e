#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the repository root. The build needs the whole module
# (the benchmark uses the program through a replace of ..), so outside a
# full checkout it fails and no result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
