#!/usr/bin/env python3
"""Validate the BENCH_*.json artefacts against their schemas.

Consolidated check used by scripts/regen_all.sh and the CI
bench-regression job. Each file declares its schema in a top-level
"schema" key; this script knows the expected shape for:

  ebi.bench_eval.v2        (BENCH_eval.json)
  ebi.bench_compressed.v2  (BENCH_compressed.json; v1 = no reorder section)
  ebi.bench_service.v1     (BENCH_service.json)

Exits non-zero on the first malformed file so CI fails loudly.

Usage: validate_bench_schema.py FILE [FILE ...]
"""

import json
import sys

NUM = (int, float)

# schema id -> (required top-level keys, rows key -> required row keys)
SPECS = {
    "ebi.bench_eval.v2": (
        {
            "workload": str,
            "engines": list,
            "unit": str,
            "smoke": bool,
            "kernel_path": str,
            "check": dict,
            "invariants": dict,
            "results": list,
            "simd": list,
        },
        {
            "results": {
                "rows": int,
                "delta": int,
                "cubes": int,
                "vectors_accessed": int,
                "naive_ns": int,
                "fused_ns": int,
                "fused_summarized_ns": int,
                "speedup_fused_vs_naive": NUM,
            },
            "simd": {
                "rows": int,
                "delta": int,
                "scalar_ns": int,
                "simd_ns": int,
                "kernel_path": str,
                "speedup_simd_vs_scalar": NUM,
            },
        },
    ),
    "ebi.bench_compressed.v1": (
        {
            "workload": str,
            "rows": int,
            "storages": list,
            "unit": str,
            "smoke": bool,
            "invariants": dict,
            "results": list,
        },
        {
            "results": {
                "skew": str,
                "delta": int,
                "storage": str,
                "median_ns": int,
                "bytes_stored": int,
                "bytes_touched": int,
                "compressed_chunks_skipped": int,
                "vectors_accessed": int,
            },
        },
    ),
    "ebi.bench_compressed.v2": (
        {
            "workload": str,
            "rows": int,
            "storages": list,
            "unit": str,
            "smoke": bool,
            "invariants": dict,
            "results": list,
            "reorder_workload": str,
            "row_orders": list,
            "reorder_results": list,
        },
        {
            "results": {
                "skew": str,
                "delta": int,
                "storage": str,
                "median_ns": int,
                "bytes_stored": int,
                "bytes_touched": int,
                "compressed_chunks_skipped": int,
                "vectors_accessed": int,
            },
            "reorder_results": {
                "skew": str,
                "storage": str,
                "order": str,
                "median_ns": int,
                "bytes_stored": int,
                "bytes_touched": int,
                "compressed_chunks_skipped": int,
                "vectors_accessed": int,
                "slice_runs": int,
                "fill_word_fraction": NUM,
            },
        },
    ),
    "ebi.bench_service.v1": (
        {
            "workload": str,
            "rows": int,
            "unit": str,
            "protocol": str,
            "workers": int,
            "max_inflight": int,
            "cores_available": int,
            "smoke": bool,
            "shard_counts": list,
            "client_counts": list,
            "invariants": dict,
            "notes": list,
            "results": list,
        },
        {
            "results": {
                "shards": int,
                "clients": int,
                "requests": int,
                "ok": int,
                "busy": int,
                "throughput_rps": NUM,
                "p50_ns": int,
                "p95_ns": int,
                "p99_ns": int,
                "throughput_scaling_vs_one_client": NUM,
            },
        },
    ),
}

KERNEL_PATHS = {"scalar", "avx2"}
ROW_ORDERS = {"original", "lexicographic", "gray"}


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")
    schema = doc.get("schema")
    if schema not in SPECS:
        fail(path, f"unknown schema {schema!r}; expected one of {sorted(SPECS)}")
    top, row_specs = SPECS[schema]
    for key, typ in top.items():
        if key not in doc:
            fail(path, f"missing key {key!r}")
        if not isinstance(doc[key], typ):
            fail(path, f"{key}: expected {typ}, got {type(doc[key]).__name__}")
    for rows_key, row_spec in row_specs.items():
        rows = doc[rows_key]
        if not rows:
            fail(path, f"{rows_key}: empty")
        for i, row in enumerate(rows):
            for key, typ in row_spec.items():
                v = row.get(key)
                if v is None:
                    fail(path, f"{rows_key}[{i}]: missing key {key!r}")
                if not isinstance(v, typ) or isinstance(v, bool):
                    fail(path, f"{rows_key}[{i}].{key}: expected {typ}, got {v!r}")
                if isinstance(v, NUM) and v < 0:
                    fail(path, f"{rows_key}[{i}].{key}: negative value {v!r}")
            if "kernel_path" in row and row["kernel_path"] not in KERNEL_PATHS:
                fail(path, f"{rows_key}[{i}].kernel_path: {row['kernel_path']!r} not in {sorted(KERNEL_PATHS)}")
    if schema == "ebi.bench_compressed.v2":
        seen = set()
        for i, row in enumerate(doc["reorder_results"]):
            if row["order"] not in ROW_ORDERS:
                fail(path, f"reorder_results[{i}].order: {row['order']!r} not in {sorted(ROW_ORDERS)}")
            if not 0.0 <= row["fill_word_fraction"] <= 1.0:
                fail(path, f"reorder_results[{i}].fill_word_fraction: {row['fill_word_fraction']!r} outside [0, 1]")
            seen.add((row["skew"], row["storage"], row["order"]))
        for skew, storage, order in seen:
            if order != "original" and (skew, storage, "original") not in seen:
                fail(path, f"reorder_results: {skew}/{storage} has a {order} row but no original baseline")
    if schema == "ebi.bench_service.v1":
        seen = set()
        for i, row in enumerate(doc["results"]):
            if not row["p50_ns"] <= row["p95_ns"] <= row["p99_ns"]:
                fail(path, f"results[{i}]: percentiles not monotone (p50/p95/p99)")
            if row["ok"] + row["busy"] != row["requests"]:
                fail(path, f"results[{i}]: ok + busy != requests")
            seen.add((row["shards"], row["clients"]))
        for shards, clients in seen:
            if clients != 1 and (shards, 1) not in seen:
                fail(path, f"results: shards={shards} has clients={clients} but no 1-client baseline")
        if doc["cores_available"] < 2 and not doc["notes"]:
            fail(path, "single-core host must document the hardware limit in notes[]")
    if schema == "ebi.bench_eval.v2":
        if doc["kernel_path"] not in KERNEL_PATHS:
            fail(path, f"kernel_path: {doc['kernel_path']!r} not in {sorted(KERNEL_PATHS)}")
    print(f"{path}: valid against {schema}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
