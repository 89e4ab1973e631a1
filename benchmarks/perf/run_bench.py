"""Wall-clock microbenchmark runner for the simulator hot path.

Measures the workloads in :mod:`benchmarks.perf.workloads` and writes a
machine-readable trajectory file (default: ``BENCH_PR7.json`` at the
repository root; ``bench_quick.json`` in the working directory with
``--quick``) containing the committed "before" baseline, the fresh
"after" numbers, and the speedup per workload.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/perf/run_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf/run_bench.py --record-baseline

``--record-baseline`` rewrites ``benchmarks/perf/baseline_pr7.json`` with
the current measurements — run it on the *pre-optimization* checkout to
establish the "before" column.

``--check-against BENCH_PR7.json`` compares the fresh run's rates to the
committed "after" rates and exits non-zero if any workload regressed by
more than ``--max-regression`` (default 1.2, i.e. >20% slower) — the CI
perf-smoke gate.  Quick-mode CI runners are noisier than the machine the
committed numbers came from, so the gate compares like with like: each
trajectory file records which mode it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINE_PATH = os.path.join(HERE, "baseline_pr7.json")
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR7.json")
#: Where ``--quick`` writes by default: the working directory, never
#: over the committed full-mode report.
QUICK_OUTPUT = "bench_quick.json"

if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.perf.workloads import WORKLOADS  # noqa: E402


def measure(workload, n: int, repeats: int) -> dict:
    """Best-of-*repeats* wall-clock for one workload at size *n*."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        units = workload(n)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {"n": n, "seconds": best, "rate": units / best}


def run_all(quick: bool, repeats: int) -> dict:
    results = {}
    for name, (workload, n_full, n_quick) in WORKLOADS.items():
        n = n_quick if quick else n_full
        print("measuring %s (n=%d) ..." % (name, n), flush=True)
        results[name] = measure(workload, n, repeats)
        print(
            "  %s: %.4fs  (%.0f units/sec)"
            % (name, results[name]["seconds"], results[name]["rate"]),
            flush=True,
        )
    return results


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small n for CI smoke")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        help="report path (default: BENCH_PR7.json at the repository root, or "
        "bench_quick.json in the working directory with --quick)",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="rewrite the committed 'before' baseline with this run",
    )
    parser.add_argument(
        "--check-against",
        metavar="JSON",
        help="compare rates to a committed trajectory file's 'after' numbers",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=1.2,
        help="fail if any workload is more than this factor slower than the "
        "committed rates (default 1.2 = >20%% regression)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_OUTPUT if args.quick else DEFAULT_OUTPUT

    results = run_all(args.quick, args.repeats)

    if args.record_baseline:
        payload = {"quick" if args.quick else "full": results}
        if os.path.exists(BASELINE_PATH):
            merged = load_json(BASELINE_PATH)
            merged.update(payload)
            payload = merged
        with open(BASELINE_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline recorded to %s" % BASELINE_PATH)
        return 0

    mode = "quick" if args.quick else "full"
    baseline = {}
    if os.path.exists(BASELINE_PATH):
        baseline = load_json(BASELINE_PATH).get(mode, {})

    report = {"pr": 7, "mode": mode, "benchmarks": {}}
    for name, after in results.items():
        entry = {"after": after}
        before = baseline.get(name)
        if before is not None:
            entry["before"] = before
            entry["speedup"] = after["rate"] / before["rate"]
        report["benchmarks"][name] = entry
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    for name, entry in report["benchmarks"].items():
        if "speedup" in entry:
            print("  %s: %.2fx vs baseline" % (name, entry["speedup"]))

    if args.check_against:
        committed_report = load_json(args.check_against)
        committed_mode = committed_report.get("mode")
        if committed_mode != mode:
            print(
                "perf-smoke gate misconfigured: committed file is %r mode but "
                "this run is %r mode (rates are not comparable across modes)"
                % (committed_mode, mode)
            )
            return 1
        committed = committed_report["benchmarks"]
        failed = False
        for name, after in results.items():
            reference = committed.get(name, {}).get("after")
            if reference is None:
                continue
            ratio = reference["rate"] / after["rate"]
            status = "FAIL" if ratio > args.max_regression else "ok"
            print(
                "  gate %s: %.0f/sec vs committed %.0f/sec (%.2fx slower) %s"
                % (name, after["rate"], reference["rate"], ratio, status)
            )
            if ratio > args.max_regression:
                failed = True
        if failed:
            print("perf-smoke gate FAILED (> %.1fx regression)" % args.max_regression)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
