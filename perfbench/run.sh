#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
