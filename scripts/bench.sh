#!/usr/bin/env sh
# bench.sh — seed the perf trajectory: run the evaluator, fabric, wire
# and experiment-engine benchmarks once and write the raw `go test
# -json` event stream to BENCH_<date>.json. One file per day of work;
# diff successive files (or feed them to benchstat after converting)
# to see where the hot paths moved. CI runs this once per push as a
# smoke check that every benchmark still compiles and completes.
#
# The gate/baseline modes turn the trajectory into a regression gate:
# `baseline` runs the hot-path benchmarks (ResolveBatch and the packed
# variant, wire encode/decode and end-to-end, evaluator cache, the
# incremental-evaluation paths: LoadState route deltas, one Optimize
# pass over replayed and over fresh traffic, one Colored build,
# incremental vs full-rescore placement) with
# -count=5 and commits the min-of-runs ns/op per benchmark to
# scripts/bench_baseline.json; `gate` repeats the run and fails (via
# cmd/benchgate) when any gated benchmark regressed more than 10%
# against that committed baseline. CI runs `gate` on every push.
#
# Usage:
#   ./scripts/bench.sh                 # -benchtime=1x smoke run
#   ./scripts/bench.sh -benchtime=100x # steadier numbers, extra args
#                                      # are passed to `go test`
#   ./scripts/bench.sh gate            # fail on >10% hot-path regression
#   ./scripts/bench.sh baseline        # rewrite scripts/bench_baseline.json
set -eu
cd "$(dirname "$0")/.."

# The gated hot paths, plus the per-package machine-speed calibration
# (internal/benchcal) that benchgate divides out. Anchored so e.g.
# ResolveBatch does not also pull in every sized variant that may
# appear later.
gate_bench='^(BenchmarkResolveBatch|BenchmarkResolveBatchPackedTraced|BenchmarkResolveBatchPacked|BenchmarkResolveBatchPackedObserved|BenchmarkWireEncodeRequest|BenchmarkWireDecodeRequest|BenchmarkWireEncodeResponse|BenchmarkWireDecodeResponse|BenchmarkWireResolveEndToEnd|BenchmarkCachedScoreHit|BenchmarkCachedScoreRoutesHit|BenchmarkApplyRouteDelta|BenchmarkOptimize|BenchmarkOptimizeFresh|BenchmarkNewColored|BenchmarkPlaceIncremental|BenchmarkPlaceFullRescore|BenchmarkCalibration)$'
gate_pkgs='./internal/core ./internal/fabric ./internal/wire ./internal/evaluate ./internal/sched'

run_gated() {
    # -benchtime=100ms gives every benchmark hundreds-to-thousands of
    # iterations per run. Samples are spread over five separate passes
    # rather than one -count=10 run: shared runners hit multi-second
    # slow phases that poison every consecutive sample of one
    # benchmark, while benchgate's min over widely spaced samples
    # shrugs them off.
    : >"$1"
    for _ in 1 2 3 4 5; do
        # shellcheck disable=SC2086
        go test -run='^$' -bench="$gate_bench" -benchtime=100ms -count=2 -json \
            $gate_pkgs >>"$1"
    done
}

mode="${1:-smoke}"
case "$mode" in
gate)
    cur="$(mktemp)"
    trap 'rm -f "$cur"' EXIT
    run_gated "$cur"
    go run ./cmd/benchgate -baseline scripts/bench_baseline.json \
        -current "$cur" -threshold 0.10
    ;;
baseline)
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    run_gated "$raw"
    go run ./cmd/benchgate -extract "$raw" \
        -note "min ns/op over 5 spaced passes of -benchtime=100ms -count=2; rewrite with ./scripts/bench.sh baseline" \
        >scripts/bench_baseline.json
    echo "wrote scripts/bench_baseline.json"
    ;;
*)
    out="BENCH_$(date +%Y-%m-%d).json"
    go test -run='^$' -bench=. -benchtime=1x -json "$@" \
        ./internal/core ./internal/evaluate ./internal/fabric ./internal/wire ./internal/experiments . \
        >"$out"
    count=$(grep -c '"Output".*ns/op' "$out" || true)
    echo "wrote $out ($count benchmark results)"
    ;;
esac
