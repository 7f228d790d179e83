#!/usr/bin/env bash
# A/A harness, and the paired gate for a change: two interleaved sets
# (A B A B ...) of full untraced runs. Run i of either set uses seed
# 1998+i, so a set also spans the seeds, and the host's drift lands on
# both sets alike.
#
#   aa.sh [runs-per-set, default 5, at least 5] [parent-checkout]
#
# Without a second argument both sets run this checkout (A/A). With one,
# set A runs the checkout named (the parent commit) and set B this one,
# each with its own build: that is how a change is judged on `p50_us`,
# `p95_us` and `throughput_ops`, which no single set of runs on this
# host can hold to a bound (README, "Noise").
#
# Prints, per workload and metric, both set medians, their relative
# difference, each set's (max-min)/median and interquartile range over
# the median, and the bound: from ../BENCHMARK.json for the end-to-end
# metrics, 15 % / 20 % / 15 % for the window's latency and rate. Exits 1
# when set B's median is worse than set A's by more than the bound, or a
# count that must repeat for a seed does not.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: at least 5 runs per set" >&2
    exit 2
fi
here=$PWD
parent="${2:-$here}"
if [ ! -f "$parent/benchmark/run.sh" ]; then
    echo "aa.sh: $parent holds no benchmark/run.sh" >&2
    exit 2
fi
parent=$(cd "$parent" && pwd)
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"

# Two checkouts must not share a build directory.
run_in() {
    local dir=$1
    shift
    if [ "$parent" = "$here" ]; then
        bash "$dir/benchmark/run.sh" "$@"
    else
        CARGO_TARGET_DIR="$dir/benchmark/target" bash "$dir/benchmark/run.sh" "$@"
    fi
}

for i in $(seq 1 "$runs"); do
    for set in A B; do
        if [ "$set" = A ]; then dir=$parent; else dir=$here; fi
        for w in serve_point serve_range serve_inlist lib_maintain; do
            run_in "$dir" --workload "$w" --trace 0 --seed $((1998 + i)) \
                >"$out/$set.$w.$i.txt"
        done
    done
done

python3 - "$out" "$runs" <<'PY'
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
metrics += [("p50_us", "lower", 0.15), ("p95_us", "lower", 0.20), ("throughput_ops", "higher", 0.15)]


def load(path):
    """The `name value unit` lines of one run, and its JSON result."""
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, (path, result)
    values = {"attempted": result["attempted"]}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in {m[0] for m in metrics}:
            values[parts[0]] = float(parts[1])
    return values


failed = False
print("| workload | metric | median A | median B | B vs A | spread A | spread B | IQR/median A | IQR/median B | bound |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    sets = {s: [load(f"{out}/{s}.{w}.{i}.txt") for i in range(1, runs + 1)] for s in "AB"}
    for name, better, bound in metrics:
        cols = {}
        for s in "AB":
            v = [r[name] for r in sets[s]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            cols[s] = (med, (max(v) - min(v)) / med, (q[2] - q[0]) / med)
        (a, sa, ia), (b, sb, ib) = cols["A"], cols["B"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        mark = ""
        if worse > bound:
            failed = True
            mark = " **over**"
        print(f"| {w} | {name} | {a:.6g} | {b:.6g} | {(b - a) / a:+.2%} | {sa:.2%} | {sb:.2%} | {ia:.2%} | {ib:.2%} | {bound:.1%}{mark} |")
    # Counts repeat exactly: run i of A and run i of B share a seed. (Two
    # commits may differ here; then the table above says by how much.)
    for i, (a, b) in enumerate(zip(sets["A"], sets["B"]), 1):
        for name in ("vectors_per_op", "index_bytes_per_row", "attempted"):
            if a[name] != b[name]:
                print(f"{w}: {name} differs between A and B on run {i}: {a[name]} and {b[name]}")
                failed = True
sys.exit(1 if failed else 0)
PY
