#!/usr/bin/env python3
"""Validate observability JSONL artefacts.

Dispatches per line on the "schema" field:

* ebi.query_report.v1 — query reports, as the service's `execute`
                        assembles them (DESIGN.md §8)
* ebi.trace.v1        — retained traces from the service tail-sampling
                        ring, each embedding a full query report
                        (DESIGN.md §13)
* ebi.log.v1          — structured service log records (DESIGN.md §13)

A file may mix schemas (e.g. a service log interleaved with nothing
else, or a trace dump). Exits non-zero on the first malformed line so
CI fails loudly.

Usage: validate_obs_schema.py path/to/file.jsonl
"""

import json
import re
import sys

QUERY_SCHEMA = "ebi.query_report.v1"
TRACE_SCHEMA = "ebi.trace.v1"
LOG_SCHEMA = "ebi.log.v1"

TOP_LEVEL = {
    "schema": str,
    "query_id": int,
    "label": str,
    "rows": int,
    "matches": int,
    "wall_ns": int,
    "expressions": list,
    "cost": dict,
    "storage": dict,
    "phases": list,
}

COST = [
    "vectors_accessed",
    "literal_ops",
    "cube_evals",
    "or_ops",
    "words_scanned",
    "bytes_touched",
    "compressed_chunks_skipped",
    "segments_pruned",
    "segments_short_circuited",
]

STORAGE = [
    "pager_reads",
    "pager_writes",
    "buffer_hits",
    "buffer_misses",
    "buffer_evictions",
    "buffer_hit_ratio",
]

PHASE = {
    "name": str,
    "start_ns": int,
    "wall_ns": int,
    "attrs": dict,
    "children": list,
}

TRACE_TOP = {
    "schema": str,
    "trace": str,
    "traceparent": str,
    "seq": int,
    "query_id": int,
    "wall_ns": int,
    "slow": bool,
    "threshold_ns": int,
    "report": dict,
}

LOG_TOP = {
    "schema": str,
    "ts_ns": int,
    "level": str,
    "target": str,
    "msg": str,
    "fields": dict,
}

LOG_LEVELS = {"debug", "info", "warn", "error"}

TRACEPARENT_RE = re.compile(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$")

_path = "<input>"


def fail(lineno, msg):
    print(f"{_path}:{lineno}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_keys(lineno, doc, spec, what):
    for key, typ in spec.items():
        if key not in doc:
            fail(lineno, f"{what}: missing key {key!r}")
        if not isinstance(doc[key], typ) or (typ is int and isinstance(doc[key], bool)):
            fail(lineno, f"{what}.{key}: expected {typ.__name__}, got {type(doc[key]).__name__}")


def check_phase(lineno, node, path):
    for key, typ in PHASE.items():
        if key not in node:
            fail(lineno, f"{path}: missing phase key {key!r}")
        if not isinstance(node[key], typ):
            fail(lineno, f"{path}.{key}: expected {typ.__name__}")
    for k, v in node["attrs"].items():
        if not isinstance(v, int) or v < 0:
            fail(lineno, f"{path}.attrs[{k!r}]: expected non-negative int")
    for i, child in enumerate(node["children"]):
        check_phase(lineno, child, f"{path}.children[{i}]")


def check_query_report(lineno, doc, require_phases=True):
    check_keys(lineno, doc, TOP_LEVEL, "report")
    for key in COST:
        v = doc["cost"].get(key)
        if not isinstance(v, int) or v < 0:
            fail(lineno, f"cost.{key}: expected non-negative int, got {v!r}")
    for key in STORAGE:
        if key not in doc["storage"]:
            fail(lineno, f"storage: missing key {key!r}")
    ratio = doc["storage"]["buffer_hit_ratio"]
    if not isinstance(ratio, (int, float)) or not 0.0 <= ratio <= 1.0:
        fail(lineno, f"storage.buffer_hit_ratio: expected number in [0,1], got {ratio!r}")
    if not all(isinstance(e, str) for e in doc["expressions"]):
        fail(lineno, "expressions: expected list of strings")
    for i, phase in enumerate(doc["phases"]):
        check_phase(lineno, phase, f"phases[{i}]")
    if doc["phases"]:
        roots = [p["name"] for p in doc["phases"]]
        if "query" not in roots:
            fail(lineno, f"phase roots {roots} lack the 'query' span")
    elif require_phases:
        fail(lineno, "phases: empty (was the subscriber off?)")


def check_trace(lineno, doc):
    check_keys(lineno, doc, TRACE_TOP, "trace")
    if not re.fullmatch(r"[0-9a-f]{32}", doc["trace"]):
        fail(lineno, f"trace: expected 32 lowercase hex chars, got {doc['trace']!r}")
    if not TRACEPARENT_RE.match(doc["traceparent"]):
        fail(lineno, f"traceparent: malformed {doc['traceparent']!r}")
    if doc["trace"] not in doc["traceparent"]:
        fail(lineno, "traceparent does not carry the trace id")
    # The embedded report is a complete query report; retained traces
    # recorded with the subscriber off legitimately have no phase tree.
    check_query_report(lineno, doc["report"], require_phases=False)
    if doc["report"]["query_id"] != doc["query_id"]:
        fail(lineno, "query_id disagrees with the embedded report")


def check_log(lineno, doc):
    check_keys(lineno, doc, LOG_TOP, "log")
    if doc["level"] not in LOG_LEVELS:
        fail(lineno, f"level: {doc['level']!r} not in {sorted(LOG_LEVELS)}")
    if "trace" in doc and not re.fullmatch(r"[0-9a-f]{32}", doc["trace"]):
        fail(lineno, f"trace: expected 32 lowercase hex chars, got {doc['trace']!r}")


CHECKERS = {
    QUERY_SCHEMA: check_query_report,
    TRACE_SCHEMA: check_trace,
    LOG_SCHEMA: check_log,
}


def check_line(lineno, line):
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        fail(lineno, f"invalid JSON: {e}")
    schema = doc.get("schema")
    checker = CHECKERS.get(schema)
    if checker is None:
        fail(lineno, f"unknown schema {schema!r} (known: {sorted(CHECKERS)})")
    checker(lineno, doc)
    return schema


def main():
    global _path
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        sys.exit(2)
    _path = sys.argv[1]
    with open(_path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        print(f"{_path}: no report lines", file=sys.stderr)
        sys.exit(1)
    seen = {}
    for lineno, line in enumerate(lines, 1):
        schema = check_line(lineno, line)
        seen[schema] = seen.get(schema, 0) + 1
    breakdown = ", ".join(f"{n} x {s}" for s, n in sorted(seen.items()))
    print(f"{_path}: {len(lines)} line(s) valid ({breakdown})")


if __name__ == "__main__":
    main()
