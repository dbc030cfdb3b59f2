#!/bin/sh
# Runs the build/predict benchmarks and writes a JSON evidence file via
# cmd/benchjson. The checked-in BENCH_PR10.json was produced by this
# script.
#
# Baselines embedded for speedup bookkeeping:
#   - Build*: BENCH_PR5.json measurements (per-node quicksort, row-major
#     QR), unchanged since.
#   - PredictDatasetCompiled*: BENCH_PR5.json (scalar blocked traversal,
#     per-chunk row copies) — the speedup field documents the fused
#     AVX-512 kernel's win.
#   - PredictColumnar*: the PR 7 in-place broadcast kernels measured on
#     this container family immediately before the PR 10 tile-transpose
#     rewrite — the speedup field documents the fused-columnar win. Those
#     direct kernels have since been deleted; these baselines and
#     BENCH_PR10.json are their remaining record.
#
# Regression gate: BenchmarkPredictColumnarSerial is checked against the
# PR 10 fused tile-transpose baseline times a noise multiplier; the run
# fails (after writing the evidence file) if the fused-columnar path
# regresses past it. Container timing noise on this family is ±10-20%,
# so the default multiplier is 1.5x.
#
# Roofline: unless ROOFLINE=0, the script first runs
# `specchar bench -roofline` (STREAM copy/scale/triad probes plus
# scoring-kernel bandwidth accounting) and embeds the report under the
# evidence file's "roofline" key.
#
# Usage: scripts/bench.sh [output.json]
# Env: BENCHTIME=6x ROOFLINE=1 COLUMNAR_BASELINE_NS=140000 NOISE_PCT=150
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR10.json}"
benchtime="${BENCHTIME:-6x}"
roofline="${ROOFLINE:-1}"
columnar_baseline="${COLUMNAR_BASELINE_NS:-140000}"
noise_pct="${NOISE_PCT:-150}"
gate=$((columnar_baseline * noise_pct / 100))

rjson=""
if [ "$roofline" = "1" ]; then
    rjson="$(mktemp)"
    trap 'rm -f "$rjson"' EXIT
    go run ./cmd/specchar bench -roofline -roofline-out "$rjson" >&2
fi

go test -run '^$' -bench 'BenchmarkBuild|BenchmarkPredict' \
    -benchtime "$benchtime" -benchmem . |
    tee /dev/stderr |
    go run ./cmd/benchjson \
        -label "PR10 fused-columnar tile transpose + memory roofline" \
        -baseline BenchmarkBuildSerial=268747454 \
        -baseline BenchmarkBuildParallel=270228908 \
        -baseline BenchmarkPredictDatasetCompiledSerial=290942 \
        -baseline BenchmarkPredictDatasetCompiledParallel=295845 \
        -baseline BenchmarkPredictColumnarSerial=296340 \
        -baseline BenchmarkPredictColumnarParallel=312678 \
        -gate "BenchmarkPredictColumnarSerial=$gate" \
        ${rjson:+-roofline "$rjson"} \
        -o "$out"
echo "wrote $out" >&2
