#!/usr/bin/env bash
# Builds sensd and the benchmark harness from this checkout, then runs
# the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and run files live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
[ -f "$root/go.mod" ] || { echo "perfbench: no go.mod at $root; run from a full checkout" >&2; exit 2; }
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench/tmp"
# Everything the go command writes (build cache, module cache, its
# telemetry counters under the config directory) stays in the build dir.
export GOCACHE=$build/perfbench/gocache GOTMPDIR=$build/perfbench/tmp GOTOOLCHAIN=local \
  GOPATH=$build/perfbench/gopath XDG_CONFIG_HOME=$build/perfbench/config
go build -C "$root" -o "$build/perfbench/sensd" ./cmd/sensd
go build -C "$root/perfbench" -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --root "$root" --sensd "$build/perfbench/sensd" --work "$build/perfbench/work" "$@"
