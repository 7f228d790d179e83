#!/usr/bin/env bash
# Builds the benchmark package and runs it (README.md).
#
#   run.sh                   every workload, untraced then traced: every
#                            metric by name with its unit, answers checked
#   run.sh --smoke           determinism self-test on 20k-row tables
#   run.sh --workload W ...  one run; the arguments go to the program
#                            (this is the `command` of ../BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

workloads="serve_point serve_range serve_inlist lib_maintain"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ebi_benchmark"

# One request is in flight at a time, so nothing in a run works in
# parallel; but on this VM a wake-up that crosses vCPUs costs 100 us or
# more in one of two modes that flip every few seconds (README, "Noise").
# The whole process therefore runs on one CPU, the last one allowed.
pin=""
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed 's/.*[:,-] *//')
    if taskset -c "$cpu" true 2>/dev/null; then
        pin="taskset -c $cpu"
    fi
fi

bench() {
    $pin "$bin" "$@"
}

# The fields of a run that must repeat exactly for a seed.
exact() {
    local out
    out=$(bench "$@") || {
        echo "smoke: run failed: $*" >&2
        exit 1
    }
    grep '^determinism ' <<<"$out"
}

case "${1:-}" in
"")
    for w in $workloads; do
        bench --workload "$w" --trace 0
        bench --workload "$w" --trace 1
    done
    ;;
--smoke)
    for w in $workloads; do
        for trace in 0 1; do
            first=$(exact --smoke --seconds 1 --workload "$w" --trace "$trace" --seed 1998)
            again=$(exact --smoke --seconds 1 --workload "$w" --trace "$trace" --seed 1998)
            if [ "$first" != "$again" ]; then
                printf 'smoke: %s trace %s differs between two runs of seed 1998\n%s\n%s\n' \
                    "$w" "$trace" "$first" "$again"
                exit 1
            fi
        done
        other=$(exact --smoke --seconds 1 --workload "$w" --trace 0 --seed 1999)
        if [ "${first%% attempted=*}" = "${other%% attempted=*}" ]; then
            echo "smoke: $w has the same script for seeds 1998 and 1999"
            exit 1
        fi
        echo "smoke: $w repeats exactly for a seed; another seed gives another script"
    done
    ;;
*)
    bench "$@"
    ;;
esac
