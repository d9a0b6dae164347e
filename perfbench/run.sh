#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. All build
# state (binary, Go build cache, temporary files) stays in .bench_build/
# at the checkout root. Arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload smtp-live --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root is not a checkout of the repository (go.mod or internal/ missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/tmp" -spans "$out/spans" "$@"
