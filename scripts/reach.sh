#!/usr/bin/env bash
# reach.sh — the dead-code gate. Lists every non-test function under
# internal/ that none of the repository's binaries reaches, and fails on
# any that scripts/unreachable_baseline.txt does not list.
#
# It builds all main packages of both modules (cmd/, examples/ and
# benchmark/) with inlining off, because an inlined callee leaves no
# symbol, and asks the linker for its reachability graph (-dumpdep). A
# function counts as reached when its linker symbol (pkg.F, pkg.(*T).M or
# pkg.T.M, generic brackets stripped) appears in any binary's graph.
#
# Baseline lines name symbols relative to nocs/internal/, as this script
# prints them (e.g. `kernel.(*PSServer).SnapshotShard`); a line ending in
# `*` matches every symbol with that prefix (e.g. `progen.*`). `#` starts a
# comment. An entry that matches no unreachable function also fails, so the
# baseline shrinks as the code does.
#
# Usage: scripts/reach.sh            # gate
#        scripts/reach.sh -list      # print every unreachable function
set -euo pipefail
cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

flags=(-gcflags=all=-l -ldflags=-dumpdep)
mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
mkdir -p "$TMP/bin" "$TMP/benchbin"
# shellcheck disable=SC2086
go build "${flags[@]}" -o "$TMP/bin/" $mains > "$TMP/deps.txt" 2>&1 ||
    { cat "$TMP/deps.txt" >&2; exit 1; }
(cd benchmark && go build "${flags[@]}" -o "$TMP/benchbin/" . ./cmp) >> "$TMP/deps.txt" 2>&1 ||
    { cat "$TMP/deps.txt" >&2; exit 1; }
nbin=$(grep -c '^# ' "$TMP/deps.txt" || true)

# Every nocs/internal symbol named on either side of an edge, brackets gone.
# The brackets go first: a generic instantiated with a struct shape has
# spaces inside them.
awk '
    {
        line = $0
        while (gsub(/\[[^][]*\]/, "", line) > 0) {}
        n = split(line, f, /[ \t]+/)
        for (i = 1; i <= n; i++) {
            if (index(f[i], "nocs/internal/") != 1) continue
            print substr(f[i], 15)
        }
    }
' "$TMP/deps.txt" | sort -u > "$TMP/reached.txt"

# Every non-test function declared under internal/, as its linker symbol.
find internal -name '*.go' -not -name '*_test.go' | sort |
    xargs awk '
    FNR == 1 { pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg) }
    /^func[ \t]/ {
        line = $0
        sub(/^func[ \t]+/, "", line)
        recv = ""
        if (substr(line, 1, 1) == "(") {
            recv = substr(line, 2, index(line, ")") - 2)
            line = substr(line, index(line, ")") + 1)
            sub(/^[ \t]+/, "", line)
            while (gsub(/\[[^][]*\]/, "", recv) > 0) {}
            n = split(recv, f, /[ \t]+/)
            recv = f[n]
        }
        if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) next
        name = substr(line, 1, RLENGTH)
        if (recv == "" && name == "init") next
        if (recv == "") sym = pkg "." name
        else if (substr(recv, 1, 1) == "*") sym = pkg ".(" recv ")." name
        else sym = pkg "." recv "." name
        printf "%s\t%s:%d\n", sym, FILENAME, FNR
    }
' | sort > "$TMP/funcs.txt"

awk -F'\t' 'NR == FNR { reached[$1] = 1; next } !($1 in reached)' \
    "$TMP/reached.txt" "$TMP/funcs.txt" > "$TMP/unreached.txt"

if [ "${1:-}" = "-list" ]; then
    cat "$TMP/unreached.txt"
    exit 0
fi

echo "   $nbin binaries, $(wc -l < "$TMP/funcs.txt") internal functions, $(wc -l < "$TMP/unreached.txt") unreached"
awk -F'\t' '
    NR == FNR {
        sub(/#.*/, ""); gsub(/[ \t]+/, "")
        if ($0 == "") next
        if ($0 ~ /\*$/) prefix[substr($0, 1, length($0) - 1)] = 0
        else exact[$0] = 0
        next
    }
    {
        if ($1 in exact) { exact[$1]++; next }
        for (p in prefix) if (index($1, p) == 1) { prefix[p]++; next }
        printf "FAIL: %s (%s) is reached by no binary and is not in scripts/unreachable_baseline.txt\n", $1, $2
        bad = 1
    }
    END {
        for (e in exact) if (!exact[e]) { printf "FAIL: baseline entry %s names no unreached function\n", e; bad = 1 }
        for (p in prefix) if (!prefix[p]) { printf "FAIL: baseline entry %s* matches no unreached function\n", p; bad = 1 }
        exit bad
    }
' scripts/unreachable_baseline.txt "$TMP/unreached.txt"
