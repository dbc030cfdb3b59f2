#!/bin/sh
# Runs the microbenchmarks of the layers that own the pipeline's time
# (the uarch simulator, the trace generator, PMU multiplexing, the
# linreg fit, the dataset RNG, and M5' induction) and writes a JSON
# evidence file via cmd/benchjson: the median of 6 runs per benchmark.
#
# Baselines embedded for speedup bookkeeping are the BENCH_PR15.json
# medians (2-vCPU Xeon @ 2.10GHz). BenchmarkBuild* has no baseline
# there and is reported without one.
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

go test -run '^$' -count 6 -benchtime "$benchtime" -benchmem \
    -bench '^Benchmark(CoreRun|GeneratorNext|CacheAccess|TLBAccess|MultiplexerSample|Fit|RNGBelow|RNGFloat64Less|Build)' \
    ./internal/uarch ./internal/trace ./internal/pmu ./internal/linreg ./internal/dataset . |
    tee /dev/stderr |
    go run ./cmd/benchjson \
        -label "simulator-layer microbenchmarks, medians of 6 at benchtime $benchtime" \
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
