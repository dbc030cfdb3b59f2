#!/bin/sh
# Runs the microbenchmarks of the layers that own the pipeline's time
# (the uarch simulator, the trace generator, PMU multiplexing, the
# linreg fit and simplification, the dataset RNG, and M5' induction),
# plus the score request decode that owns most of a bulk specchard
# request, and writes a JSON evidence file via cmd/benchjson: the
# median of 6 runs per benchmark.
# The runs are six passes over the whole set, one run of each benchmark
# per pass, so drift of a shared host spreads across all benchmarks
# instead of landing on the six back-to-back repeats of one.
#
# Baselines embedded for speedup bookkeeping are the BENCH_PR15.json
# medians (2-vCPU Xeon @ 2.10GHz). BenchmarkBuild* has no baseline
# there and is reported without one, as are BenchmarkSimplifyRoot (the
# fit and simplification of a root-sized linear model, ~6 000 rows x 19
# attributes) and BenchmarkDecodeScoreRequest (single-pass parser vs
# encoding/json, 1 and 512 samples).
#
# Regression gate: each BenchmarkCoreRun/* subcase is checked against its
# BENCH_PR15.json median times NOISE_PCT/100; the run fails (after
# writing the evidence file) if the simulator's per-op cost regresses
# past it. Container timing noise on this family is ±10-20%, so the
# default multiplier is 1.5x.
#
# Usage: scripts/bench.sh [output.json]   (no argument: JSON to stdout)
# Env: BENCHTIME=1s NOISE_PCT=150
set -eu
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
noise_pct="${NOISE_PCT:-150}"

# BENCH_PR15.json medians, ns/op.
core_compute=70.77
core_mem=81.97
core_stream=68.94
core_tlb=82.84

gate() { awk -v ns="$1" -v pct="$noise_pct" 'BEGIN { printf "%.2f", ns * pct / 100 }'; }

for pass in 1 2 3 4 5 6; do
    go test -run '^$' -count 1 -benchtime "$benchtime" -benchmem \
        -bench '^Benchmark(CoreRun|GeneratorNext|CacheAccess|TLBAccess|MultiplexerSample|Fit|SimplifyRoot|RNGBelow|RNGFloat64Less|Build|DecodeScoreRequest)' \
        ./internal/uarch ./internal/trace ./internal/pmu ./internal/linreg ./internal/dataset ./internal/serve .
done |
    tee /dev/stderr |
    go run ./cmd/benchjson \
        -label "simulator-layer and decode microbenchmarks, medians of 6 at benchtime $benchtime" \
        -baseline "BenchmarkCoreRun/compute=$core_compute" \
        -baseline "BenchmarkCoreRun/mem-bound=$core_mem" \
        -baseline "BenchmarkCoreRun/stream=$core_stream" \
        -baseline "BenchmarkCoreRun/tlb-bound=$core_tlb" \
        -baseline BenchmarkGeneratorNext=41.77 \
        -baseline BenchmarkCacheAccess/L1D=32.45 \
        -baseline BenchmarkCacheAccess/L2=16.61 \
        -baseline BenchmarkTLBAccess=20.2 \
        -baseline BenchmarkMultiplexerSample=911.15 \
        -baseline BenchmarkFit=24906 \
        -baseline BenchmarkRNGBelow=8.33 \
        -baseline BenchmarkRNGFloat64Less=10.73 \
        -gate "BenchmarkCoreRun/compute=$(gate $core_compute)" \
        -gate "BenchmarkCoreRun/mem-bound=$(gate $core_mem)" \
        -gate "BenchmarkCoreRun/stream=$(gate $core_stream)" \
        -gate "BenchmarkCoreRun/tlb-bound=$(gate $core_tlb)" \
        ${1:+-o "$1"}
if [ -n "${1:-}" ]; then
    echo "wrote $1" >&2
fi
