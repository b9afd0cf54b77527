#!/usr/bin/env bash
# ci.sh — the repository's correctness gate. Run before every commit
# (scripts/bench.sh records timings and leaves the gating to this script):
#
#   1. gofmt           — no unformatted files
#   2. go vet          — static checks
#   3. go build        — every package, including examples and cmds
#   4. dead-code gate  — scripts/reach.sh: every non-test function under
#                        internal/ that none of the 12 binaries reaches
#                        (linker reachability, inlining off) must be listed,
#                        with its reason, in scripts/unreachable_baseline.txt
#   5. go test -race   — the full suite under the race detector. It includes
#                        the field-level dead-code gate,
#                        TestEveryExportedFieldIsSet (knob_gate_test.go):
#                        every exported field of an exported struct under
#                        internal/ that no non-test code writes must be
#                        listed, with its reason, in
#                        scripts/knob_baseline.txt (~1.5 s, ~8 s under -race)
#   6. benchmark module — go vet + go test in benchmark/, its own Go module
#                        (the root ./... never compiles it), which drives
#                        sim, machine, serve and kernel
#   7. fuzz smoke      — 10s of coverage-guided fuzzing per fuzz target,
#                        on top of the checked-in corpora: the assembler,
#                        the trace and NOCSNAP1 codecs, the memory and
#                        cache restore codecs (FuzzMemoryRestore: no panic,
#                        and whatever restores re-encodes to its own bytes),
#                        and the NIC and SSD restore codecs run
#                        through snapshot.Restore (FuzzDeviceRestore: the
#                        same two properties, with no recover around them)
#   8. diff sweep      — 200 fresh seeds through the engine-vs-reference
#                        differential harness (DESIGN.md §9), each seed also
#                        checkpointed/restored mid-run (restore-equivalence)
#   9. faulted sweep   — 100 seeds with injected fault schedules, their
#                        restore-equivalence variant, the planted
#                        fault-swallowing mutation that the sweep must catch
#                        (DESIGN.md §10), and the diff-bisection harness
#                        localizing a planted mutation to its exact first
#                        divergent cycle (DESIGN.md §13)
#  10. fault package   — go vet + race-enabled unit tests for
#                        internal/faultinject
#  11. allocation gate — CoreInstructionRate + F7_TailLatency +
#                        UncontendedLock + ServeCell + F9_PriorityScheduling
#                        (the oversubscribed core's ready queue) +
#                        SnapshotEncode + SnapshotRestore (one checkpoint
#                        save and one restore of a 4-core machine) +
#                        ServeNew (building a 5,000-connection cell) allocs/op
#                        must stay within 10% of scripts/alloc_baseline.txt
#                        (the zero-alloc hot paths must not silently regrow
#                        heap traffic); so must B/op where the baseline has
#                        a third column (F7_TailLatency: a request train
#                        materialized again is a few allocations but
#                        megabytes)
#  12. system suite    — `nocsim -exp S1,L1,SV1 -quick`; the exit status is
#                        the check. S1, L1 and SV1 each fail unless their
#                        sharded pass is byte-identical to the serial
#                        oracle; L1 also fails on any exclusion violation or
#                        lost wakeup, SV1 on a conservation break or if no
#                        overload cell refused a request (DESIGN.md §12,
#                        §14, §15)
#  13. seed sweep      — `nocsim -all -quick -parallel 2 -seed N` for N =
#                        1..20 (~10 s): every paper claim must hold at every
#                        seed, not only at the golden one
#  14. lock ordering   — a 60-seed lock-ordering differential sweep with the
#                        planted LIFO-handoff mutation that the sweep must
#                        catch (DESIGN.md §14)
#  15. snapshot golden — `nocsim -exp E1 -quick` checkpointed to a file, then
#                        resumed from the last checkpoint: one plain diff of
#                        the two outputs (DESIGN.md §13)
#  16. trace gate      — `nocsim -exp E1 -quick -trace` must print exactly
#                        the untraced run's output, and its trace file must
#                        be byte-identical to a second traced run under
#                        GOMAXPROCS=1 (sharded vs serial oracle, DESIGN.md §8);
#                        `nocsim -all -quick -trace` must write the same file
#                        at the default GOMAXPROCS and at GOMAXPROCS=1
#  17. golden diff     — `nocsim -all` must be byte-identical to the
#                        committed results_full.txt (skip with SKIP_GOLDEN=1
#                        when the caller performs its own golden run)
#
#  The `nocsim -all` runs of steps 16 and 17 also fail on a failed paper
#  claim: each paper experiment states its claims as checks, and nocsim
#  exits 1 when one fails (DESIGN.md §3).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== dead-code gate (scripts/reach.sh) =="
scripts/reach.sh

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (vet + test) =="
(cd benchmark && go vet ./... && go test ./...)

echo "== fuzz smoke (10s per target) =="
go test -run '^$' -fuzz '^FuzzAsmParse$' -fuzztime 10s ./internal/asm
go test -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 10s ./internal/snapshot
go test -run '^$' -fuzz '^FuzzMemoryRestore$' -fuzztime 10s ./internal/mem
go test -run '^$' -fuzz '^FuzzDeviceRestore$' -fuzztime 10s ./internal/device

echo "== differential sweep (200 seeds) + restore equivalence =="
NOCS_DIFF_N=200 go test -count=1 \
    -run '^(TestDifferentialSweep|TestRestoreEquivalenceSweep)$' \
    ./internal/refmodel/diff

echo "== faulted differential sweep (100 seeds) + planted mutation + bisection =="
NOCS_DIFF_N=100 go test -count=1 \
    -run '^(TestFaultedDifferentialSweep|TestFaultMutationIsCaught|TestFaultedRestoreEquivalenceSweep|TestBisectLocalizesPlantedMutation)$' \
    ./internal/refmodel/diff

echo "== fault-injection package (vet + race) =="
go vet ./internal/faultinject
go test -race -count=1 ./internal/faultinject

echo "== allocation gate (allocs/op and B/op within 10% of scripts/alloc_baseline.txt) =="
go test -run '^$' -bench '^(BenchmarkCoreInstructionRate|BenchmarkF7_TailLatency|BenchmarkUncontendedLock|BenchmarkServeCell|BenchmarkF9_PriorityScheduling|BenchmarkSnapshotEncode|BenchmarkSnapshotRestore|BenchmarkServeNew)$' \
    -benchmem -benchtime 1x . > "$TMP/allocgate.txt"
awk '
    NR==FNR { if ($0 !~ /^#/ && NF >= 2) { base[$1] = $2; if (NF >= 3) bbase[$1] = $3 }; next }
    /^Benchmark/ && /allocs\/op/ {
        name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
        a = ""; by = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "allocs/op") a = $(i-1)
            if ($i == "B/op") by = $(i-1)
        }
        if (!(name in base)) { printf "FAIL: no baseline for %s in scripts/alloc_baseline.txt\n", name; bad = 1; next }
        lim = base[name] * 1.10
        printf "   %-22s %8d allocs/op (baseline %d, limit %.0f)\n", name, a, base[name], lim
        if (a + 0 > lim) { printf "FAIL: %s allocs/op regressed: %d > %.0f\n", name, a, lim; bad = 1 }
        if (name in bbase) {
            blim = bbase[name] * 1.10
            printf "   %-22s %8d B/op      (baseline %d, limit %.0f)\n", name, by, bbase[name], blim
            if (by + 0 > blim) { printf "FAIL: %s B/op regressed: %d > %.0f\n", name, by, blim; bad = 1 }
        }
        seen[name] = 1
    }
    END {
        for (n in base) if (!(n in seen)) { printf "FAIL: baseline benchmark %s did not run\n", n; bad = 1 }
        exit bad
    }
' scripts/alloc_baseline.txt "$TMP/allocgate.txt"

echo "== system suite: nocsim -exp S1,L1,SV1 -quick (self-verifying) =="
go build -o "$TMP/nocsim" ./cmd/nocsim
"$TMP/nocsim" -exp S1,L1,SV1 -quick > "$TMP/system.txt"
sed -n 's/^note: /   /p' "$TMP/system.txt"

echo "== seed sweep: nocsim -all -quick -parallel 2 at seeds 1..20 =="
for seed in $(seq 1 20); do
    if ! "$TMP/nocsim" -all -quick -parallel 2 -seed "$seed" > /dev/null 2> "$TMP/seed.txt"; then
        echo "FAIL: nocsim -all -quick fails at seed $seed:" >&2
        cat "$TMP/seed.txt" >&2
        exit 1
    fi
done
echo "   every paper claim holds at seeds 1..20"

echo "== lock-ordering differential sweep (60 seeds) + planted mutation =="
NOCS_DIFF_N=60 go test -count=1 \
    -run '^(TestLockDifferentialSweep|TestHandoffMutationIsCaught)$' \
    ./internal/refmodel/diff

echo "== snapshot golden: nocsim -exp E1 checkpoint/resume identity =="
"$TMP/nocsim" -exp E1 -quick -checkpoint-every 30000 \
    -checkpoint "$TMP/e1.ckpt" > "$TMP/e1.txt"
"$TMP/nocsim" -exp E1 -quick -resume "$TMP/e1.ckpt" > "$TMP/e1_resume.txt"
if ! diff -u "$TMP/e1.txt" "$TMP/e1_resume.txt"; then
    echo "FAIL: resumed E1 output differs from the straight-through run" >&2
    exit 1
fi

echo "== trace gate: traced E1 runs the untraced run, at any worker count =="
"$TMP/nocsim" -exp E1 -quick -trace "$TMP/e1.json" > "$TMP/e1_traced.txt"
if ! diff -u "$TMP/e1.txt" "$TMP/e1_traced.txt"; then
    echo "FAIL: tracing changed E1's output" >&2
    exit 1
fi
GOMAXPROCS=1 "$TMP/nocsim" -exp E1 -quick -trace "$TMP/e1_serial.json" > /dev/null
if ! cmp "$TMP/e1.json" "$TMP/e1_serial.json"; then
    echo "FAIL: E1 trace differs between the sharded run and GOMAXPROCS=1" >&2
    exit 1
fi
"$TMP/nocsim" -all -quick -trace "$TMP/all.json" > /dev/null
GOMAXPROCS=1 "$TMP/nocsim" -all -quick -trace "$TMP/all_serial.json" > /dev/null
if ! cmp "$TMP/all.json" "$TMP/all_serial.json"; then
    echo "FAIL: -all trace differs between the default GOMAXPROCS and GOMAXPROCS=1" >&2
    exit 1
fi

if [ "${SKIP_GOLDEN:-0}" != "1" ]; then
    echo "== determinism: nocsim -all vs results_full.txt =="
    "$TMP/nocsim" -all > "$TMP/all.txt"
    if ! diff -u results_full.txt "$TMP/all.txt" > "$TMP/diff.txt"; then
        echo "FAIL: nocsim -all output differs from committed golden:" >&2
        head -40 "$TMP/diff.txt" >&2
        exit 1
    fi
    echo "   identical"
fi

echo "ci: all green"
