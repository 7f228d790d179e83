#!/usr/bin/env bash
# Black-box smoke test for the query service: starts a real ebi_serve
# process, fires concurrent mixed-protocol traffic from both frontends,
# asserts the two protocols answer bit-identically and deterministically,
# checks /metrics parses, exercises every /debug/* telemetry endpoint
# (trace ring, slow log, Chrome export) and /stats plus trace propagation,
# validates the structured JSONL log and trace dumps against their
# schemas, then exercises graceful shutdown with requests still in
# flight. Run from the workspace root (CI: service-smoke job).
set -euo pipefail

BIN=./target/release/ebi_serve
if [ ! -x "$BIN" ]; then
  cargo build --release -p ebi-service --bin ebi_serve
fi

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

# Three kernel windows on two workers, and a dispatch floor of 0: every
# query splits into two morsels on the worker pool, so the smoke runs
# the dispatched path, not only the inline one. A 0ms slow
# threshold classifies every query slow (worst-case tail-sampling), and
# EBI_LOG routes the structured JSONL log to a file we validate below.
EBI_SERVICE_MIN_DISPATCH_WORDS=0 EBI_SLOW_QUERY_MS=0 \
  EBI_LOG="$workdir/service_log.jsonl" EBI_LOG_LEVEL=debug \
  "$BIN" --rows 70000 --workers 2 --max-inflight 6 >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# Wait for the machine-parseable ready line.
ready=""
for _ in $(seq 1 100); do
  ready=$(grep -m1 '^EBI_SERVICE ' "$workdir/stdout" || true)
  [ -n "$ready" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "server died during startup"; cat "$workdir/stderr"; exit 1; }
  sleep 0.1
done
[ -n "$ready" ] || { echo "server never printed its ready line"; cat "$workdir/stderr"; exit 1; }

tcp=${ready#*tcp=}; tcp=${tcp%% *}
http=${ready#*http=}
echo "service up: tcp=$tcp http=$http"

python3 - "$tcp" "$http" "$workdir" <<'PYEOF'
import json
import os
import re
import socket
import sys
import threading
import urllib.request
import urllib.parse
from collections import Counter

tcp_host, tcp_port = sys.argv[1].rsplit(":", 1)
http_base = f"http://{sys.argv[2]}"
workdir = sys.argv[3]

QUERIES = [
    "a=1",
    "a=0 AND b=1",
    "a IN 1,3,5 OR c IN 0,2",
    "c BETWEEN 1 9 AND b BETWEEN 0 4",
    "b=0 OR a=2 AND c=3",
]


def tcp_line(line):
    with socket.create_connection((tcp_host, int(tcp_port)), timeout=10) as s:
        s.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode().rstrip("\n")


def http_get(path, ok_codes=(200,)):
    try:
        with urllib.request.urlopen(http_base + path, timeout=10) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        assert e.code in ok_codes, f"{path}: HTTP {e.code}"
        return e.code, e.read().decode()


def tcp_answer(query):
    resp = tcp_line(f"QUERY {query} LIMIT 25")
    assert resp.startswith("OK {"), f"TCP refused {query!r}: {resp}"
    return json.loads(resp[3:])


def http_answer(query):
    q = urllib.parse.quote(query)
    status, body = http_get(f"/query?q={q}&limit=25")
    assert status == 200, f"HTTP refused {query!r}: {body}"
    return json.loads(body)


# --- concurrent mixed-protocol storm, both frontends, checked answers ---
reference = {}
for query in QUERIES:
    t = tcp_answer(query)
    h = http_answer(query)
    assert t["matches"] == h["matches"], f"{query!r}: TCP {t['matches']} != HTTP {h['matches']}"
    assert t["rows"] == h["rows"], f"{query!r}: row lists diverge between protocols"
    reference[query] = (t["matches"], t["rows"])

errors = []


def worker(proto, n):
    try:
        for i in range(n):
            query = QUERIES[i % len(QUERIES)]
            want_matches, want_rows = reference[query]
            a = tcp_answer(query) if proto == "tcp" else http_answer(query)
            assert a["matches"] == want_matches, f"{proto} {query!r}: matches drifted"
            assert a["rows"] == want_rows, f"{proto} {query!r}: rows drifted"
    except Exception as e:  # noqa: BLE001 - collected and reported below
        errors.append(f"{proto}: {e}")


threads = [threading.Thread(target=worker, args=(p, 25)) for p in ("tcp", "http") for _ in range(3)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not errors, "concurrent storm failed: " + "; ".join(errors)
print(f"mixed-protocol storm ok: {len(threads)} clients x 25 requests, answers stable")

# --- protocol odds and ends ---
assert tcp_line("PING") == "PONG"
assert tcp_line("COUNT nosuch=1").startswith("ERR")
status, _ = http_get("/nosuch", ok_codes=(404,))
assert status == 404
explain = tcp_line(f"EXPLAIN {QUERIES[1]}")
assert "eval.worker" in explain, f"EXPLAIN lost the per-morsel spans: {explain[:200]}"
assert "morsels=2" in explain and "dispatched=1" in explain, f"not split: {explain[:400]}"
stats = json.loads(tcp_line("STATS")[3:])
assert "shards" not in stats, stats
assert stats["workers"] == 2 and stats["max_inflight"] == 6

# --- telemetry: trace propagation + every /debug/* endpoint ---
TP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TRACE32 = "4bf92f3577b34da6a3ce929d0e0e4736"

resp = tcp_line(f"TRACEPARENT {TP} COUNT {QUERIES[0]}")
assert resp.startswith("OK {"), f"traceparent request refused: {resp}"
echoed = json.loads(resp[3:])["trace"]
assert echoed.startswith(f"00-{TRACE32}-"), f"TCP did not adopt the inbound trace: {echoed}"

req = urllib.request.Request(http_base + "/count?q=" + urllib.parse.quote(QUERIES[0]))
req.add_header("traceparent", TP)
with urllib.request.urlopen(req, timeout=10) as r:
    hdr = r.headers.get("traceparent", "")
    assert hdr.startswith(f"00-{TRACE32}-"), f"HTTP echo missing/wrong: {hdr!r}"
    assert json.loads(r.read().decode())["trace"] == hdr

status, traces = http_get("/debug/traces")
assert status == 200
trace_lines = [json.loads(l) for l in traces.splitlines() if l.strip()]
assert trace_lines, "/debug/traces is empty"
for doc in trace_lines:
    assert doc["schema"] == "ebi.trace.v1", doc
    assert re.fullmatch(r"[0-9a-f]{32}", doc["trace"]), doc["trace"]
    assert doc["report"]["schema"] == "ebi.query_report.v1", doc
assert any(d["trace"] == TRACE32 for d in trace_lines), "inbound trace not retained"

status, slow = http_get("/debug/slow")
assert status == 200
slow_lines = [json.loads(l) for l in slow.splitlines() if l.strip()]
assert slow_lines, "/debug/slow empty despite EBI_SLOW_QUERY_MS=0"
assert all(d["slow"] for d in slow_lines)

status, chrome = http_get(f"/debug/trace/{TRACE32}")
assert status == 200
chrome_doc = json.loads(chrome)
names = {e.get("name") for e in chrome_doc["traceEvents"]}
assert "eval.worker" in names, f"Chrome export lost worker spans: {sorted(names)[:10]}"
status, _ = http_get("/debug/trace/ffffffffffffffffffffffffffffffff", ok_codes=(404,))
assert status == 404


# Both renderings of one trace come from the same span records: the
# Chrome events and the JSON line's phase tree name the same spans.
def phase_names(nodes):
    for node in nodes:
        yield node["name"]
        yield from phase_names(node["children"])


probe = trace_lines[-1]
status, probe_chrome = http_get(f"/debug/trace/{probe['query_id']}")
assert status == 200
probe_doc = json.loads(probe_chrome)
assert probe_doc["otherData"]["query_id"] == probe["query_id"], probe_doc["otherData"]
assert probe_doc["otherData"]["trace"] == probe["trace"], probe_doc["otherData"]
events = Counter(e["name"] for e in probe_doc["traceEvents"] if e["ph"] == "X")
phases = Counter(phase_names(probe["report"]["phases"]))
assert phases and events == phases, f"Chrome {events} != phases {phases}"

status, stats_body = http_get("/stats")
assert status == 200
stats_doc = json.loads(stats_body)
for key in ("build", "uptime_ms", "served", "slow_queries", "slow_retained",
            "traces_recorded", "traces_retained", "trace_ring_capacity",
            "slow_ring_capacity"):
    assert key in stats_doc, f"/stats missing {key}"
assert "metrics" not in stats_doc, "/stats repeats /metrics"
assert stats_doc["slow_queries"] > 0
assert http_get("/debug/vars", ok_codes=(404,))[0] == 404, "/debug/vars still answers"

with socket.create_connection((tcp_host, int(tcp_port)), timeout=10) as s:
    s.sendall(b"TRACES 3\n")
    buf = b""
    while not buf.rstrip(b"\n").endswith(b"\n.") and not buf.startswith(b"ERR"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
page = buf.decode().splitlines()
n = int(page[0].split()[1])
body = [l for l in page[1:] if l and l != "."]
assert n == len(body) == 3, f"TRACES paging broken: head={page[0]!r} body={len(body)}"
for line in body:
    assert json.loads(line)["schema"] == "ebi.trace.v1"
print(f"telemetry ok: {len(trace_lines)} traces, {len(slow_lines)} slow, chrome export loads")

with open(os.path.join(workdir, "service_traces.jsonl"), "w", encoding="utf-8") as f:
    f.write(traces)

# --- stats parity between frontends, with the telemetry counters ---
tcp_stats = json.loads(tcp_line("STATS")[3:])
_, http_stats_body = http_get("/stats")
http_stats = json.loads(http_stats_body)
assert set(tcp_stats) == set(http_stats), (
    f"stats schemas diverged: {sorted(set(tcp_stats) ^ set(http_stats))}"
)
for key in ("uptime_ms", "inflight", "rejected_busy", "rejected_draining", "slow_queries"):
    assert key in tcp_stats, f"STATS missing {key}"
print("stats parity ok:", sorted(tcp_stats))

# --- /metrics must parse as Prometheus text and carry every family ---
status, metrics = http_get("/metrics")
assert status == 200
FAMILIES = {
    "ebi_service_requests_total", "ebi_service_request_ns", "ebi_service_eval_ns",
    "ebi_service_slow_queries_total", "ebi_service_panics_total",
    "ebi_query_latency_ns", "ebi_query_vectors_accessed", "ebi_query_words_scanned",
    "ebi_query_bytes_touched", "ebi_kernel_compressed_chunks_skipped_total",
    "ebi_kernel_segments_pruned_total", "ebi_kernel_segments_short_circuited_total",
}
families = {l.split()[2] for l in metrics.splitlines() if l.startswith("# TYPE ")}
assert families == FAMILIES, f"families differ: {sorted(families ^ FAMILIES)}"
samples = {}
for line in metrics.splitlines():
    if not line or line.startswith("#"):
        continue
    series, value = line.rsplit(" ", 1)
    samples[series] = float(value)
# Two morsels, so two evaluation samples, per answered query.
assert samples["ebi_service_eval_ns_count"] == 2 * samples["ebi_query_latency_ns_count"], samples
assert samples['ebi_service_requests_total{proto="http",status="ok"}'] > 0
assert samples["ebi_service_panics_total"] == 0
# Every answered query so far is in the ring's latency histogram, and
# every slow one (all of them at a 0 ms threshold) in the slow count.
assert samples["ebi_query_latency_ns_count"] == tcp_stats["served"], (samples, tcp_stats)
assert samples["ebi_service_slow_queries_total"] == samples["ebi_query_latency_ns_count"]
print("metrics ok:", sum(1 for l in metrics.splitlines() if l and not l.startswith("#")), "samples")

# --- graceful shutdown with requests in flight ---
def storm():
    for i in range(60):
        try:
            resp = tcp_line(f"COUNT {QUERIES[i % len(QUERIES)]}")
        except OSError:
            break  # listener gone: drain finished
        assert (
            resp.startswith("OK {") or resp == "BUSY"
            or resp.startswith("ERR draining") or resp == ""
        ), f"torn response during drain: {resp!r}"


stormers = [threading.Thread(target=storm) for _ in range(3)]
for t in stormers:
    t.start()
req = urllib.request.Request(http_base + "/shutdown", data=b"", method="POST")
with urllib.request.urlopen(req, timeout=10) as r:
    body = r.read().decode()
    assert "draining" in body, f"shutdown answered: {body}"
for t in stormers:
    t.join()
print("graceful shutdown ok: drain acknowledged mid-storm, no torn responses")
PYEOF

# The server must exit cleanly and report its drain summary.
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "server did not exit after drain"; exit 1
fi
wait "$pid"
grep -q '"msg":"service drained"' "$workdir/service_log.jsonl" || {
  echo "missing drain summary in structured log"; cat "$workdir/service_log.jsonl"; exit 1;
}

# The structured log and the trace dump must validate against their
# schemas (ebi.log.v1 / ebi.trace.v1 with embedded query reports).
python3 scripts/validate_obs_schema.py "$workdir/service_log.jsonl"
python3 scripts/validate_obs_schema.py "$workdir/service_traces.jsonl"
echo "service smoke passed: $(grep '"msg":"service drained"' "$workdir/service_log.jsonl")"
