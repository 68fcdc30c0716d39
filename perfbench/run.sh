#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload serve-local --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/run" "$@"
