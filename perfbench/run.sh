#!/usr/bin/env bash
# Builds pased and the benchmark program from the checkout's sources, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload hit-spec --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind stays under .bench_build/
# in the current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pased" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/pased here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/pased" ./cmd/pased >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -pased "$out/bin/pased" "$@"
