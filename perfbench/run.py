"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream_echo --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer table from a profiled run.  A table of every metric with its
unit goes to standard output, and the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` every workload runs in turn, each in its own
process so that ``peak_rss_mb`` is its own, and the exit status is
non-zero if any of them failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_ROOT)
SRC = os.path.join(CHECKOUT, "src")

WORKLOADS = ("stream_echo", "graph_kv", "load_kv", "rt_echo")


def _workload(name: str, seed: int):
    if name == "stream_echo":
        from perfbench.stream_echo import StreamEcho
        return StreamEcho(seed)
    if name == "graph_kv":
        from perfbench.graph_kv import GraphKv
        return GraphKv(seed)
    if name == "load_kv":
        from perfbench.load_kv import LoadKv
        return LoadKv(seed)
    from perfbench.rt_echo import RtEcho
    return RtEcho(seed)


def _print_table(name: str, result) -> None:
    print("%s: %d round(s), %d attempted, %d failed, %s" % (
        name,
        result["rounds"],
        result["attempted"],
        result["failed"],
        "correct" if result["correct"] else "INCORRECT",
    ))
    if result["samples"] is not None:
        print("  sim latency samples per round: %d" % result["samples"])
    for metric, entry in result["metrics"].items():
        print("  %-34s %16.6g %s" % (metric, entry["value"], entry["unit"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            child = subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ])
            status = status or child.returncode
        return status

    for path in (SRC, CHECKOUT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.runner import measure

    result = measure(_workload(args.workload, args.seed), args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }), flush=True)
    # Spawning the rt_echo worker starts multiprocessing's resource
    # tracker; stop it and wait for it, so no process outlives the run.
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
