#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it; every argument
# is passed on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced runs' span files stay
# under .bench_build/ in the repository root, so the script reads and
# writes nothing outside the checkout beyond the Go toolchain itself.
# The benchmark is its own module (perfbench/go.mod) that resolves
# the repository module from the parent directory; outside a
# checkout of the repository the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
