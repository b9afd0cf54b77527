#!/usr/bin/env bash
# bench.sh — regression harness for the simulator's hot paths.
#
# 1. Proves determinism: `nocsim -all` (serial AND -parallel 8) must be
#    byte-identical to the committed golden results_full.txt.
# 2. Times `nocsim -all` wall clock.
# 3. Runs the system suite with `nocsim -exp S1,L1,SV1 -format json`: S1's
#    sharded speedup over the serial oracle (bounded by the host's CPU
#    count), every L1 lock-contention row, and every SV1 serving cell, each
#    self-verified serial vs sharded. SERVE_QUICK=1 adds -quick when the
#    full 10^5-connection serving sweep is too slow.
# 4. Runs the repository testing.B benchmarks with -benchmem.
# 5. Emits BENCH_6.json: per-experiment ns/op, B/op, allocs/op (plus
#    sim-instrs/op and sim-instrs/sec where a benchmark reports them), the
#    wall times, the headline instructions_per_sec figure (sustained
#    simulated-instruction rate from CoreInstructionRate), the snapshot
#    block (checkpoint serialize/restore throughput in MB/s and ns per
#    checkpoint, from BenchmarkSnapshotEncode/BenchmarkSnapshotRestore),
#    and the experiments block: step 3's JSON verbatim (tables, notes and
#    named metrics per experiment), so the next hot-path PR starts from
#    numbers, not guesses.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=1x (default) controls -benchtime; set e.g. BENCHTIME=2s for
#   steadier numbers on a quiet machine.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_6.json}
BENCHTIME=${BENCHTIME:-1x}
GOLDEN=results_full.txt
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Correctness gate first (gofmt, vet, build, test -race); the golden diff is
# skipped because this script runs it itself, timed, below.
SKIP_GOLDEN=1 scripts/ci.sh

echo "== build =="
go build -o "$TMP/nocsim" ./cmd/nocsim

echo "== determinism: nocsim -all vs $GOLDEN =="
t0=$(date +%s%N)
"$TMP/nocsim" -all > "$TMP/all.txt"
t1=$(date +%s%N)
wall_ms=$(( (t1 - t0) / 1000000 ))
if ! diff -u "$GOLDEN" "$TMP/all.txt" > "$TMP/diff.txt"; then
    echo "FAIL: nocsim -all output differs from committed golden $GOLDEN:" >&2
    head -40 "$TMP/diff.txt" >&2
    exit 1
fi
echo "   serial: identical, ${wall_ms} ms"

t0=$(date +%s%N)
"$TMP/nocsim" -all -parallel 8 > "$TMP/all_par.txt"
t1=$(date +%s%N)
wall_par_ms=$(( (t1 - t0) / 1000000 ))
if ! cmp -s "$GOLDEN" "$TMP/all_par.txt"; then
    echo "FAIL: nocsim -all -parallel 8 output differs from golden (determinism broken)" >&2
    exit 1
fi
echo "   -parallel 8: identical, ${wall_par_ms} ms"

echo "== system suite: nocsim -exp S1,L1,SV1 -format json =="
SYSTEM_ARGS=(-exp S1,L1,SV1 -format json)
if [ "${SERVE_QUICK:-0}" = "1" ]; then
    SYSTEM_ARGS+=(-quick)
fi
"$TMP/nocsim" "${SYSTEM_ARGS[@]}" > "$TMP/experiments.json"

echo "== benchmarks (-benchmem -benchtime $BENCHTIME) =="
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" . | tee "$TMP/bench.txt"

echo "== writing $OUT =="
awk -v wall_ms="$wall_ms" -v wall_par_ms="$wall_par_ms" \
    -v expjson="$TMP/experiments.json" '
BEGIN { n = 0; ips = "" }
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = ""; allocs = ""; instrs = ""; rate = ""; mbs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")          ns = $(i-1)
        if ($i == "B/op")           bytes = $(i-1)
        if ($i == "allocs/op")      allocs = $(i-1)
        if ($i == "sim-instrs/op")  instrs = $(i-1)
        if ($i == "sim-instrs/sec") rate = $(i-1)
        if ($i == "MB/s")           mbs = $(i-1)
    }
    names[n] = name; nss[n] = ns; bs[n] = bytes; as[n] = allocs
    sis[n] = instrs; srs[n] = rate; n++
    if (name == "CoreInstructionRate" && rate != "") ips = rate
    if (name == "SnapshotEncode")  { snap_enc_mbs = mbs; snap_enc_ns = ns }
    if (name == "SnapshotRestore") { snap_res_mbs = mbs; snap_res_ns = ns }
}
END {
    printf "{\n"
    printf "  \"nocsim_all_wall_ms\": %d,\n", wall_ms
    printf "  \"nocsim_all_parallel8_wall_ms\": %d,\n", wall_par_ms
    printf "  \"golden_diff\": \"identical\",\n"
    printf "  \"instructions_per_sec\": %s,\n", ips == "" ? "null" : ips
    printf "  \"snapshot\": {\"encode_mb_per_sec\": %s, \"encode_ns_per_checkpoint\": %s, \"restore_mb_per_sec\": %s, \"restore_ns_per_checkpoint\": %s},\n", \
        snap_enc_mbs == "" ? "null" : snap_enc_mbs, \
        snap_enc_ns == "" ? "null" : snap_enc_ns, \
        snap_res_mbs == "" ? "null" : snap_res_mbs, \
        snap_res_ns == "" ? "null" : snap_res_ns
    printf "  \"experiments\": "
    while ((getline line < expjson) > 0) { if (prev != "") print prev; prev = line }
    print prev ","
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            names[i], nss[i], bs[i] == "" ? "null" : bs[i], as[i] == "" ? "null" : as[i]
        if (sis[i] != "") printf ", \"sim_instrs_per_op\": %s", sis[i]
        if (srs[i] != "") printf ", \"sim_instrs_per_sec\": %s", srs[i]
        printf "}%s\n", i < n-1 ? "," : ""
    }
    printf "  ]\n}\n"
}' "$TMP/bench.txt" > "$OUT"

echo "wrote $OUT ($(grep -c '"ns_per_op"' "$OUT") benchmarks, nocsim -all ${wall_ms} ms)"
