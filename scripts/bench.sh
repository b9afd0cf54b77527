#!/usr/bin/env bash
# bench.sh — record the next point of the BENCH_N.json series.
#
# Runs benchmark/run.sh on every workload twice, once with --trace 0 (the
# end-to-end metrics) and once with --trace 1 (the per-layer metrics), then
# the allocation-gate benchmarks named in scripts/alloc_baseline.txt with
# -benchmem. It writes each run's result line verbatim plus allocs/op per
# gate benchmark to BENCH_<N+1>.json, N being the highest existing BENCH_N,
# or to the path given as the first argument. Correctness gates live in
# scripts/ci.sh; every benchmark run checks its own outputs ("correct").
#
# Every run uses --seconds 28 --seed 1, the benchmark's defaults.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    OUT=$1
else
    n=0
    for f in BENCH_*.json; do
        k=${f#BENCH_}
        k=${k%.json}
        if [[ $k =~ ^[0-9]+$ ]] && ((k > n)); then
            n=$k
        fi
    done
    OUT=BENCH_$((n + 1)).json
fi
WORKLOADS=(paper serve-nocs serve-legacy ring)

runs=()
for trace in 0 1; do
    for w in "${WORKLOADS[@]}"; do
        echo "== benchmark/run.sh --workload $w --trace $trace ==" >&2
        line=$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 28 --trace "$trace" | tail -n 1)
        runs+=("    {\"workload\": \"$w\", \"trace\": $trace, \"result\": $line}")
    done
done

names=()
while read -r name _; do
    [[ -z $name || $name == \#* ]] || names+=("Benchmark$name")
done < scripts/alloc_baseline.txt
regex="^($(IFS='|'; echo "${names[*]}"))\$"
echo "== go test -bench '$regex' -benchmem ==" >&2
allocs=()
while read -r -a f; do
    [[ ${#f[@]} -gt 0 && ${f[0]} == Benchmark* ]] || continue
    name=${f[0]#Benchmark}
    name=${name%-*}
    for ((i = 1; i < ${#f[@]}; i++)); do
        if [[ ${f[i]} == allocs/op ]]; then
            allocs+=("    \"$name\": ${f[i - 1]}")
        fi
    done
done < <(go test -run '^$' -bench "$regex" -benchmem -benchtime 1x .)

{
    echo "{"
    echo "  \"seconds\": 28,"
    echo "  \"seed\": 1,"
    echo "  \"runs\": ["
    (IFS=$'\n'; echo "${runs[*]}" | sed '$!s/$/,/')
    echo "  ],"
    echo "  \"allocs_per_op\": {"
    (IFS=$'\n'; echo "${allocs[*]}" | sed '$!s/$/,/')
    echo "  }"
    echo "}"
} > "$OUT"
echo "wrote $OUT (${#runs[@]} runs, ${#allocs[@]} benchmarks)" >&2
