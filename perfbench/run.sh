#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it, passing every
# argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload py-probe-local --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
