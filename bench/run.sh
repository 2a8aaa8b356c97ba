#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, e.g.
#
#   bash bench/run.sh --workload detail_pgc --seed 0 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ at the repository root. Without the simulator's source next
# to bench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/pgcbench" .)
cd "$root"
exec "$out/pgcbench" "$@"
