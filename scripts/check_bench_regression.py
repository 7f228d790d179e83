#!/usr/bin/env python3
"""Gate CI on benchmark regressions against the committed baselines.

Compares the freshly generated smoke artefacts against the checked-in
baselines in bench_baselines/:

  BENCH_eval.json        vs bench_baselines/BENCH_eval.smoke.json
  BENCH_compressed.json  vs bench_baselines/BENCH_compressed.smoke.json
  BENCH_service.json     vs bench_baselines/BENCH_service.smoke.json

Only dimensionless speedup ratios are compared — never raw
nanoseconds — so the gate is meaningful across runner generations. A
metric regresses when it falls below baseline * (1 - TOLERANCE).
Improvements never fail. Every baseline point must still exist in the
current run (a vanished point is a silent coverage loss); extra
current points (e.g. more cores on the runner) are fine.

From BENCH_eval only the scalar-vs-SIMD floor is gated: its
fused-vs-naive ratio failed on untouched code in three PRs running,
noise wider than the tolerance, so it is reported, not gated.

Usage: check_bench_regression.py [--tolerance 0.15]
       [--current-dir .] [--baseline-dir bench_baselines]
"""

import argparse
import json
import sys

FAILURES = []


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: cannot load baseline/current artefact: {e}", file=sys.stderr)
        sys.exit(1)


def compare(name, key, baseline, current, tolerance):
    """baseline/current: {point-key: speedup}."""
    for point, base in sorted(baseline.items()):
        cur = current.get(point)
        if cur is None:
            FAILURES.append(f"{name} {point}: point present in baseline but missing from current run")
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if cur >= floor else "REGRESSED"
        print(f"{name:<28} {point:<36} {key}: baseline {base:.3f} current {cur:.3f} floor {floor:.3f} {status}")
        if cur < floor:
            FAILURES.append(
                f"{name} {point}: {key} {cur:.3f} fell below {floor:.3f} (baseline {base:.3f}, tolerance {tolerance:.0%})"
            )


def simd_points(doc):
    return {f"delta={r['delta']}": r["speedup_simd_vs_scalar"] for r in doc["simd"]}


def service_points(doc):
    """Throughput of each multi-client cell relative to the 1-client
    cell at the same shard count — the dimensionless cost of client
    concurrency (admission, connection handling, fan-out contention).
    A drop means added per-request serialization, not a slower host."""
    return {
        f"shards={r['shards']},clients={r['clients']}": r["throughput_scaling_vs_one_client"]
        for r in doc["results"]
        if r["clients"] != 1
    }


def reorder_storage_ratios(doc):
    """Sorted-storage ratio per (skew, storage, order): bytes stored by
    the original-order build divided by the reordered build's — the
    dimensionless payoff of build-time row reordering. Dense stays at
    1.0 (reordering never changes dense footprint); the compressed
    containers are where a regression would show."""
    by = {(r["skew"], r["storage"], r["order"]): r for r in doc.get("reorder_results", [])}
    out = {}
    for (skew, storage, order), r in by.items():
        if order == "original":
            continue
        base = by.get((skew, storage, "original"))
        if base and r["bytes_stored"] > 0:
            out[f"skew={skew},storage={storage},order={order}"] = (
                base["bytes_stored"] / r["bytes_stored"]
            )
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--baseline-dir", default="bench_baselines")
    args = ap.parse_args()

    cur_eval = load(f"{args.current_dir}/BENCH_eval.json")
    base_eval = load(f"{args.baseline_dir}/BENCH_eval.smoke.json")
    cur_compressed = load(f"{args.current_dir}/BENCH_compressed.json")
    base_compressed = load(f"{args.baseline_dir}/BENCH_compressed.smoke.json")
    cur_service = load(f"{args.current_dir}/BENCH_service.json")
    base_service = load(f"{args.baseline_dir}/BENCH_service.smoke.json")

    for doc, label in (
        (cur_eval, "current BENCH_eval"),
        (base_eval, "baseline BENCH_eval"),
        (cur_compressed, "current BENCH_compressed"),
        (base_compressed, "baseline BENCH_compressed"),
        (cur_service, "current BENCH_service"),
        (base_service, "baseline BENCH_service"),
    ):
        if not doc.get("smoke"):
            print(f"{label} is not a --smoke artefact; refusing to compare", file=sys.stderr)
            sys.exit(1)

    compare(
        "BENCH_eval/simd", "speedup_simd_vs_scalar",
        simd_points(base_eval), simd_points(cur_eval), args.tolerance,
    )
    compare(
        "BENCH_compressed/reorder", "sorted_storage_ratio",
        reorder_storage_ratios(base_compressed), reorder_storage_ratios(cur_compressed),
        args.tolerance,
    )
    compare(
        "BENCH_service", "throughput_scaling_vs_one_client",
        service_points(base_service), service_points(cur_service), args.tolerance,
    )

    if FAILURES:
        print(f"\n{len(FAILURES)} benchmark regression(s):", file=sys.stderr)
        for f in FAILURES:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nno benchmark regressions (tolerance {:.0%})".format(args.tolerance))


if __name__ == "__main__":
    main()
