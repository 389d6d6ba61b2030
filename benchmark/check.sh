#!/usr/bin/env bash
# Smoke check of the benchmark pipeline (about 1-3 s per run).
#
#   benchmark/check.sh            (from the repo root or anywhere)
#
# Runs all four workloads at --smoke size, untraced and traced, and
# fails if any run
#   - reports correct=false: among others, when a metric BENCHMARK.json
#     lists (end_to_end untraced, per_layer traced) is missing or has
#     another unit, or when its rounds disagree on the fingerprint;
#   - prints no fingerprint line;
#   - has a traced fingerprint that differs from the untraced one.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
work="$here/out/check"
rm -rf "$work"
mkdir -p "$work"
cd "$root"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

failures=0
fail() {
    echo "check: $*" >&2
    failures=$((failures + 1))
}

for w in hotloop fig4-campaign scale-1024 task-churn; do
    before=$failures
    for trace in 0 1; do
        out="$work/$w-trace$trace.txt"
        if ! cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$w" --seed 0 --smoke --trace "$trace" > "$out"; then
            fail "$w --trace $trace exited with an error"
            continue
        fi
        grep -Eq '^fingerprint [0-9a-f]{16} hash$' "$out" || fail "$w --trace $trace: no fingerprint line"
        tail -n 1 "$out" | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)' \
            || fail "$w --trace $trace: correct=false"
    done
    untraced="$(awk '$1 == "fingerprint" { print $2 }' "$work/$w-trace0.txt" || true)"
    traced="$(awk '$1 == "fingerprint" { print $2 }' "$work/$w-trace1.txt" || true)"
    [ -n "$untraced" ] && [ "$untraced" = "$traced" ] \
        || fail "$w: fingerprint $untraced untraced, $traced traced"
    [ "$failures" = "$before" ] && echo "check: $w ok ($untraced)" >&2
done
[ "$failures" = 0 ]
