#!/usr/bin/env bash
# Builds the benchmark and mgserve from the sources of the checkout it is
# run in, then runs one benchmark workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload train-3d-p1 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, models, traces,
# per-run reports) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -d "$root/cmd/mgserve" ]; then
	echo "perfbench: run from the root of an mgdiffnet checkout (needs go.mod, internal/ and cmd/mgserve/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/bin/mgserve" ./cmd/mgserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
