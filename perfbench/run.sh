#!/usr/bin/env bash
# Builds the benchmark and the cmd/serve binary it drives from this
# checkout's sources, then runs one workload:
#
#   bash perfbench/run.sh --workload expander|grid|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# every temporary file stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/serve" ./cmd/serve
exec "$out/bin/perfbench" --serve-bin "$out/bin/serve" "$@"
