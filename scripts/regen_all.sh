#!/usr/bin/env bash
# Regenerates every paper artefact: figure CSVs, the digest, the timing
# table, the SIMD-vs-scalar kernel comparison and the service telemetry
# transcripts. Run from the workspace root.
set -euo pipefail

cargo build --release -p ebi-bench --bins

bins=(
  fig09_vectors_accessed
  fig10_space
  worst_case_analysis
  crossover_btree
  sparsity_report
  groupset_report
  tpcd_mix
  theorem21_check
  ablation_encodings
  buffer_sweep
  tpcd_lite_report
  base_sweep
  well_defined_report
)
for b in "${bins[@]}"; do
  echo "==== $b ===="
  "./target/release/$b"
done
./target/release/results_digest

echo "==== timing (pinned to one CPU) ===="
# Every timed case, interleaved, into bench_results/timing.csv. The
# whole process runs on one CPU, the last one allowed, as
# benchmark/run.sh pins its runs.
pin=""
if command -v taskset >/dev/null; then
  cpu=$(taskset -cp $$ | sed 's/.*[:,-] *//')
  if taskset -c "$cpu" true 2>/dev/null; then
    pin="taskset -c $cpu"
  fi
fi
$pin ./target/release/timing > /dev/null

echo "==== eval_kernels (full) ===="
./target/release/eval_kernels

echo "==== service telemetry (traces with their query reports, metrics, log) ===="
# Live service telemetry: run a short ebi_serve session with worst-case
# tail sampling (every query slow) and a file log sink, dump the trace
# ring and the server's /metrics, and commit the three artefacts.
cargo build --release -p ebi-service --bin ebi_serve
rm -f bench_results/service_log.jsonl
obs_work=$(mktemp -d)
EBI_SLOW_QUERY_MS=0 \
  EBI_LOG="bench_results/service_log.jsonl" EBI_LOG_LEVEL=debug \
  ./target/release/ebi_serve --rows 70000 --workers 2 >"$obs_work/stdout" &
obs_pid=$!
for _ in $(seq 1 100); do
  grep -q '^EBI_SERVICE ' "$obs_work/stdout" 2>/dev/null && break
  sleep 0.1
done
obs_ready=$(grep -m1 '^EBI_SERVICE ' "$obs_work/stdout")
obs_http=${obs_ready#*http=}
for q in "a=1" "a IN 1,3,5 AND b BETWEEN 0 3" "c BETWEEN 1 9" "b=0 OR a=2"; do
  curl -sf "http://$obs_http/count?q=$(python3 -c 'import sys,urllib.parse; print(urllib.parse.quote(sys.argv[1]))' "$q")" > /dev/null
done
curl -sf "http://$obs_http/debug/traces" > bench_results/service_traces.jsonl
curl -sf "http://$obs_http/metrics" > bench_results/obs_metrics.prom
curl -sf -X POST "http://$obs_http/shutdown" > /dev/null
wait "$obs_pid"
rm -rf "$obs_work"
python3 scripts/validate_obs_schema.py bench_results/service_traces.jsonl
python3 scripts/validate_obs_schema.py bench_results/service_log.jsonl
