"""Pending-promise scaling: vat continuations vs. blocking-claim processes.

The paper's ``claim`` forces every outstanding promise to have a consumer
process blocked in it — one generator, one event subscription, one
calendar entry each.  The PR 6 continuation layer replaces all of that
with one vat-queue entry per promise.  This benchmark holds ``n`` pending
promises (default 10^5) both ways, resolves them all, and compares:

* wall-clock seconds for the whole create → pend → resolve → consume run;
* peak traced memory (``tracemalloc``) over that run;
* simulated processes created per pending promise (n vs. 0).

A third scenario, ``bare``, creates and resolves the same promises with
no consumer at all; subtracting its peak isolates the *marginal* cost of
the consumption mechanism itself (``consumer_memory_reduction``), which
is the number the tentpole claim is about — the promises exist in every
variant, only the way they are consumed differs.

Results go to ``BENCH_PR6.json`` at the repository root (``--quick``
runs to ``bench_vat_quick.json`` in the working directory).  ``--check``
gates the structural claim for CI perf-smoke: at ``n`` pending promises
the blocking side must cost at least ``--min-process-reduction`` (default
10x) more processes and ``--min-memory-reduction`` (default 10x) more
per-consumer peak memory than the vat side.

Usage::

    PYTHONPATH=src python benchmarks/perf/vat_bench.py            # full run
    PYTHONPATH=src python benchmarks/perf/vat_bench.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR6.json")
#: Where ``--quick`` writes by default: the working directory, never
#: over the committed full-mode report.
QUICK_OUTPUT = "bench_vat_quick.json"

if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.outcome import Outcome  # noqa: E402
from repro.core.promise import Promise  # noqa: E402
from repro.sim.kernel import Environment  # noqa: E402

N_FULL = 100_000
N_QUICK = 10_000


def pend_blocking(n: int) -> int:
    """n pending promises, each consumed by a blocking-claim process."""
    env = Environment()
    promises = [Promise(env) for _ in range(n)]
    state = {"consumed": 0}

    def claimer(promise):
        value = yield promise.claim()
        assert value == 1
        state["consumed"] += 1

    for promise in promises:
        env.process(claimer(promise))

    def resolve_all():
        for promise in promises:
            promise.resolve(Outcome.normal(1))

    env.call_in(1.0, resolve_all)
    env.run()
    assert state["consumed"] == n
    return env._next_pid  # processes created


def pend_vat(n: int) -> int:
    """n pending promises, each consumed by a vat continuation."""
    env = Environment()
    promises = [Promise(env) for _ in range(n)]
    state = {"consumed": 0}

    def consume(outcome):
        assert outcome.results == (1,)
        state["consumed"] += 1

    for promise in promises:
        promise.on_resolved(consume)

    def resolve_all():
        for promise in promises:
            promise.resolve(Outcome.normal(1))

    env.call_in(1.0, resolve_all)
    env.run()
    assert state["consumed"] == n
    return env._next_pid  # processes created


def pend_bare(n: int) -> int:
    """n pending promises with no consumer: the shared substrate cost."""
    env = Environment()
    promises = [Promise(env) for _ in range(n)]

    def resolve_all():
        for promise in promises:
            promise.resolve(Outcome.normal(1))

    env.call_in(1.0, resolve_all)
    env.run()
    assert all(promise.ready() for promise in promises)
    return env._next_pid


SCENARIOS = {"bare": pend_bare, "blocking": pend_blocking, "vat": pend_vat}


def measure(scenario, n: int, repeats: int) -> dict:
    """Wall time (best of *repeats*, untraced) plus one tracemalloc pass."""
    best = float("inf")
    processes = 0
    for _ in range(repeats):
        start = time.perf_counter()
        processes = scenario(n)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    scenario(n)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n": n,
        "seconds": best,
        "rate": n / best,
        "peak_bytes": peak,
        "bytes_per_pending": peak / n,
        "processes": processes,
        "processes_per_pending": processes / n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small n for CI smoke")
    parser.add_argument("--n", type=int, default=None, help="override pending count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        help="report path (default: BENCH_PR6.json at the repository root, or "
        "bench_vat_quick.json in the working directory with --quick)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the vat side wins by the required margins",
    )
    parser.add_argument("--min-process-reduction", type=float, default=10.0)
    parser.add_argument("--min-memory-reduction", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_OUTPUT if args.quick else DEFAULT_OUTPUT

    n = args.n if args.n is not None else (N_QUICK if args.quick else N_FULL)
    results = {}
    for name, scenario in SCENARIOS.items():
        print("measuring %s (n=%d) ..." % (name, n), flush=True)
        results[name] = measure(scenario, n, args.repeats)
        print(
            "  %s: %.4fs  peak %.1f MiB  %d processes"
            % (
                name,
                results[name]["seconds"],
                results[name]["peak_bytes"] / 2**20,
                results[name]["processes"],
            ),
            flush=True,
        )

    bare, blocking, vat = results["bare"], results["blocking"], results["vat"]
    blocking_overhead = blocking["peak_bytes"] - bare["peak_bytes"]
    vat_overhead = max(vat["peak_bytes"] - bare["peak_bytes"], 1)
    comparison = {
        "speedup": blocking["seconds"] / vat["seconds"],
        "total_memory_reduction": blocking["peak_bytes"] / vat["peak_bytes"],
        "consumer_bytes_per_pending": {
            "blocking": blocking_overhead / n,
            "vat": vat_overhead / n,
        },
        "consumer_memory_reduction": blocking_overhead / vat_overhead,
        # The vat side needs no process at all; clamp the denominator so
        # the ratio stays finite (and honest: "per process it does use").
        "process_reduction": blocking["processes"] / max(vat["processes"], 1),
    }
    report = {"pr": 6, "mode": "quick" if args.quick else "full",
              "benchmarks": results, "comparison": comparison}
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    print(
        "  vat vs blocking: %.2fx faster, %.2fx less total peak memory, "
        "%.1fx less per-consumer memory, %.0fx fewer processes"
        % (
            comparison["speedup"],
            comparison["total_memory_reduction"],
            comparison["consumer_memory_reduction"],
            comparison["process_reduction"],
        )
    )

    if args.check:
        failed = False
        if comparison["process_reduction"] < args.min_process_reduction:
            print(
                "gate FAILED: process reduction %.1fx < required %.1fx"
                % (comparison["process_reduction"], args.min_process_reduction)
            )
            failed = True
        if comparison["consumer_memory_reduction"] < args.min_memory_reduction:
            print(
                "gate FAILED: consumer memory reduction %.1fx < required %.1fx"
                % (
                    comparison["consumer_memory_reduction"],
                    args.min_memory_reduction,
                )
            )
            failed = True
        if failed:
            return 1
        print("gate ok (process >= %.1fx, memory >= %.1fx)"
              % (args.min_process_reduction, args.min_memory_reduction))
    return 0


if __name__ == "__main__":
    sys.exit(main())
