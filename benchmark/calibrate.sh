#!/usr/bin/env bash
# Calibrates the benchmark and records its baseline.
#
#   benchmark/calibrate.sh [RUNS]        (default RUNS=10, from the repo root or anywhere)
#
# 1. Runs two sets, one after the other, of RUNS untraced runs of every
#    workload at seeds 1..RUNS, each as long as BENCHMARK.json's
#    run_seconds (the program's default), and writes
#    results/spread.json. Per set, workload and printed metric: the
#    median, the quartiles as Python's
#    statistics.quantiles(n=4) gives them, and the spread
#    (q3 - q1) / median. Per workload and end-to-end metric of
#    BENCHMARK.json: the drift, by how much
#    the second set's median is worse than the first's. Per metric: the
#    bound it needs, max(10 %, 3 x the widest spread, the worst drift)
#    over workloads and sets, so that a spread stays below a third of
#    its bound and the two sets agree within it; whether that need fits
#    the largest bound BENCHMARK.json allows (25 %); and the bound to
#    list, the need rounded up to a percent and capped at 25 %. setup_s
#    needs only its drift covered and is listed with the largest bound.
# 2. Records the baseline: results/baseline.json holds untraced runs at
#    seed 0 and at the held-out seed 424242, results/layers.json a traced
#    run at seed 0. Both carry nproc and the git revision.
#
# Results go to benchmark/results unless RESULTS_DIR says otherwise.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
heldout=424242
results="${RESULTS_DIR:-$here/results}"
work="$here/out/calibrate"
workloads=(hotloop fig4-campaign scale-1024 task-churn)

mkdir -p "$results" "$work"
rm -f "$work"/*.jsonl
cd "$root"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

# bench FILE TAGS WORKLOAD SEED TRACE: one run; appends TAGS (JSON
# object members), its fingerprint, every printed metric and its last
# line to FILE.
bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$3" --seed "$4" --trace "$5" > "$work/run.txt"
    local fp printed
    fp="$(awk '$1 == "fingerprint" { print $2 }' "$work/run.txt")"
    printed="$(awk 'NF == 3 && $1 != "fingerprint" { printf "%s\"%s\":%s", sep, $1, $2; sep = "," }' "$work/run.txt")"
    echo "{$2,\"workload\":\"$3\",\"seed\":$4,\"fingerprint\":\"$fp\",\"printed\":{$printed},\"result\":$(tail -n 1 "$work/run.txt")}" \
        >> "$1"
}

for set in 1 2; do
    for i in $(seq 1 "$runs"); do
        for w in "${workloads[@]}"; do
            bench "$work/spread.jsonl" "\"set\":$set" "$w" "$i" 0
        done
        echo "set $set: run $i/$runs done" >&2
    done
done

for w in "${workloads[@]}"; do
    bench "$work/baseline.jsonl" '"trace":0' "$w" 0 0
    bench "$work/baseline.jsonl" '"trace":0' "$w" "$heldout" 0
    bench "$work/layers.jsonl" '"trace":1' "$w" 0 1
    echo "baseline $w done" >&2
done

rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    rev="$rev+uncommitted"
fi

python3 - "$work" "$results" "$runs" "$rev" "$(nproc)" <<'EOF'
import json, math, statistics, sys

work, results, runs, rev, nproc = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
meta = {"git": rev, "nproc": int(nproc), "seconds": spec["run_seconds"]}
CAP, FLOOR = 0.25, 0.10
better = {m["name"]: m["better"] for m in spec["end_to_end"]}

def load(name):
    with open(f"{work}/{name}.jsonl") as f:
        return [json.loads(line) for line in f]

values = {}
for row in load("spread"):
    for name, value in row["printed"].items():
        values.setdefault(row["workload"], {}).setdefault(name, {}) \
            .setdefault(row["set"], []).append(value)
table, need = {}, {name: FLOOR for name in better}
for workload, metrics in values.items():
    table[workload] = {}
    for name, sets in metrics.items():
        entry = {"listed": name in better}
        for s, vals in sorted(sets.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            entry[f"set{s}"] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "values": vals}
            if name in better and name != "setup_s":
                need[name] = max(need[name], 3 * spread)
        if name in better:
            a, b = entry["set1"]["median"], entry["set2"]["median"]
            drift = ((b - a) if better[name] == "lower" else (a - b)) / a if a else 0.0
            entry["drift"] = drift
            need[name] = max(need[name], drift)
        table[workload][name] = entry
summary = {name: {"needed_bound": n, "fits_cap": n <= CAP,
                  "bound": CAP if name == "setup_s" else min(CAP, math.ceil(round(n * 100, 6)) / 100)}
           for name, n in need.items()}
with open(f"{results}/spread.json", "w") as f:
    json.dump({**meta, "runs": int(runs), "seeds": list(range(1, int(runs) + 1)),
               "cap": CAP, "floor": FLOOR, "metrics": summary, "workloads": table},
              f, indent=2)
for name in ("baseline", "layers"):
    with open(f"{results}/{name}.json", "w") as f:
        json.dump({**meta, "trace": name == "layers", "runs": [
            {"workload": r["workload"], "seed": r["seed"], "fingerprint": r["fingerprint"],
             "correct": r["result"]["correct"], "metrics": r["result"]["metrics"]}
            for r in load(name)]}, f, indent=2)
print(json.dumps(summary, indent=2))
EOF
