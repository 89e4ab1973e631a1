"""Graph benchmark: the PR 10 sharded promise-graph engine vs per-edge RPC.

Like ``transport_bench.py``, this measures *protocol efficiency* in
deterministic simulated units, so its numbers are bit-reproducible
across machines and CI runs.  The workload is the one the engine was
built for: a Zipf-skewed key-value DAG whose chains hop across shards
and join in collectors — hot keys pile onto a few shards, cold keys
scatter, and every chain crosses at least one shard boundary in
expectation.

* ``skewed_kv`` — the same DAG driven two ways.  "Before" walks it with
  :meth:`GraphRuntime.run_rpc`: one blocking round trip per DAG edge,
  the client as the data plane.  "After" ships it with
  :meth:`GraphRuntime.submit`: routine trees travel to the shard their
  scheduling key hashes to, execute where the data lives, and cascade
  shard-to-shard without returning to the client.  Metric: routine
  executions per simulated second.

* ``epoch_batching`` — the same submission with per-shard epoch
  batching off ("before": every delivery is its own frame) vs on
  ("after": all deliveries bound for one shard travel as a single
  epoch frame).  Metric: wire messages for the whole run.

Both runs assert the DAG computed identical results, so the speedup is
never purchased with dropped or duplicated work.

Usage::

    PYTHONPATH=src python benchmarks/perf/graph_bench.py          # full
    PYTHONPATH=src python benchmarks/perf/graph_bench.py --quick  # CI
    PYTHONPATH=src python benchmarks/perf/graph_bench.py --check  # gate

``--check`` exits non-zero unless the engine meets the PR 10 acceptance
margins (>= 3x skewed-kv throughput over per-edge RPC, strictly fewer
wire messages with batching on).  ``--check-against FILE`` additionally
gates each scenario's ratio against a committed same-mode reference
(>20% regression fails); sim results are bit-reproducible, so the 20%
only absorbs intentional engine changes, not machine noise.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")
#: Where ``--quick`` writes by default: the working directory, never
#: over the committed full-mode report.
QUICK_OUTPUT = "bench_graph_quick.json"

if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.entities import ArgusSystem  # noqa: E402
from repro.graph import GraphBuilder, GraphRuntime, register_routine  # noqa: E402
from repro.types import INT, STRING  # noqa: E402

LATENCY = 1.0
KERNEL_OVERHEAD = 0.1
BASE_SEED = 11
N_SHARDS = 4
KEYSPACE = 64
ZIPF_S = 1.2
FAN_IN = 4
MAX_REGRESSION = 0.20

# ----------------------------------------------------------------------
# Routines (state-keyed per chain, so results are order-independent and
# the RPC and sharded runs can be compared value-for-value).
# ----------------------------------------------------------------------


def _gb_add(state, captures, inputs):
    key, delta = captures
    data = state.setdefault("data", {})
    data[key] = data.get(key, 0) + delta
    return (data[key],)


def _gb_scale(state, captures, inputs):
    (factor,) = captures
    (value,) = inputs
    return (value * factor,)


def _gb_sum(state, captures, inputs):
    return (sum(values[0] for values in inputs),)


register_routine(
    "gb.add", _gb_add, capture_types=(STRING, INT), output_types=(INT,), cost=0.05
)
register_routine(
    "gb.scale",
    _gb_scale,
    capture_types=(INT,),
    input_types=(INT,),
    output_types=(INT,),
    cost=0.05,
)
register_routine("gb.sum", _gb_sum, input_types=(INT,), output_types=(INT,), cost=0.05)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def _zipf_draw(rng):
    """A Zipf(s=ZIPF_S) sampler over KEYSPACE ranks."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYSPACE)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return lambda: bisect.bisect_left(cdf, rng.random())


def _build_dag(seed, chains):
    """*chains* two-hop chains on Zipf-skewed keys, joined FAN_IN-wise.

    Scheduling keys are skewed (placement piles onto hot shards); state
    keys are unique per chain, so every run computes the same values no
    matter which engine drives it or in what order routines fire.
    """
    draw = _zipf_draw(random.Random(seed))
    g = GraphBuilder()
    pending, nodes = [], 0
    for index in range(chains):
        src = g.source(
            "gb.add", captures=("c%d" % index, index + 1), sched_key=draw()
        )
        hop = src.then("gb.scale", captures=(3,), sched_key=draw())
        nodes += 2
        pending.append(hop)
        if len(pending) == FAN_IN:
            g.collect("gb.sum", inputs=pending, sched_key=draw()).emit(
                "join%d" % index
            )
            nodes += 1
            pending = []
    for index, hop in enumerate(pending):
        hop.emit("tail%d" % index)
    return g, nodes


def _expected_results(chains):
    """What every engine must compute for ``_build_dag(seed, chains)``."""
    results = {}
    pending = []
    for index in range(chains):
        pending.append((index + 1) * 3)
        if len(pending) == FAN_IN:
            results["join%d" % index] = (sum(pending),)
            pending = []
    for index, value in enumerate(pending):
        results["tail%d" % index] = (value,)
    return results


def _build_world(seed):
    system = ArgusSystem(
        seed=seed, latency=LATENCY, kernel_overhead=KERNEL_OVERHEAD
    )
    names = ["shard%d" % index for index in range(N_SHARDS)]
    runtime = GraphRuntime(system, names, origin="client")
    for name in names:
        runtime.install_shard(system.create_guardian(name))
    client = system.create_guardian("client")
    runtime.install_origin(client)
    return system, runtime, client


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _run_submit(seed, chains, batching):
    system, runtime, client = _build_world(seed)
    graph, nodes = _build_dag(seed, chains)

    def main(ctx):
        start = ctx.now
        promises = runtime.submit(ctx, graph, batching=batching)
        results = {}
        for tag, promise in promises.items():
            results[tag] = yield promise.claim()
        return results, ctx.now - start

    process = client.spawn(main)
    results, elapsed = system.run(until=process)
    expected = _expected_results(chains)
    flat = {
        tag: value if isinstance(value, tuple) else (value,)
        for tag, value in results.items()
    }
    assert flat == expected, "sharded engine computed wrong results"
    assert runtime.pending_count() == 0
    return {
        "nodes": nodes,
        "sim_seconds": round(elapsed, 6),
        "calls_per_sim_sec": round(nodes / elapsed, 6),
        "wire_messages": system.stats()["messages_sent"],
    }


def _run_rpc(seed, chains):
    system, runtime, client = _build_world(seed)
    graph, nodes = _build_dag(seed, chains)

    def main(ctx):
        start = ctx.now
        results = yield from runtime.run_rpc(ctx, graph)
        return results, ctx.now - start

    process = client.spawn(main)
    results, elapsed = system.run(until=process)
    assert results == _expected_results(chains), "RPC baseline computed wrong results"
    return {
        "nodes": nodes,
        "sim_seconds": round(elapsed, 6),
        "calls_per_sim_sec": round(nodes / elapsed, 6),
        "wire_messages": system.stats()["messages_sent"],
    }


def skewed_kv(mode, chains=200):
    """Routine executions per simulated second: per-edge RPC vs sharded."""
    if mode == "before":
        return _run_rpc(BASE_SEED, chains)
    return _run_submit(BASE_SEED, chains, batching=True)


def epoch_batching(mode, chains=200):
    """Wire messages for one submission: batching off vs on."""
    return _run_submit(BASE_SEED, chains, batching=(mode == "after"))


#: scenario -> (runner, full kwargs, --quick kwargs, (metric, direction, gate))
SCENARIOS = {
    "skewed_kv": (
        skewed_kv,
        {"chains": 200},
        {"chains": 60},
        ("calls_per_sim_sec", "higher", 3.0),
    ),
    "epoch_batching": (
        epoch_batching,
        {"chains": 200},
        {"chains": 60},
        ("wire_messages", "lower", 1.0),
    ),
}


def _check_reference(report, path):
    """Gate each scenario's ratio against a committed same-mode report."""
    with open(path) as handle:
        reference = json.load(handle)
    if reference.get("mode") != report["mode"]:
        return [
            "reference %s is a %r run; refusing to compare against a %r run"
            % (path, reference.get("mode"), report["mode"])
        ]
    failures = []
    for name, entry in report["benchmarks"].items():
        ref_entry = reference.get("benchmarks", {}).get(name)
        if ref_entry is None:
            failures.append("%s: missing from reference %s" % (name, path))
            continue
        ratio, ref_ratio = entry["ratio"], ref_entry["ratio"]
        if entry["direction"] == "higher":
            floor = ref_ratio * (1.0 - MAX_REGRESSION)
            ok = ratio >= floor
        else:
            ceiling = ref_ratio * (1.0 + MAX_REGRESSION)
            ok = ratio <= ceiling
        print(
            "  %s: ratio %.3f vs reference %.3f -> %s"
            % (name, ratio, ref_ratio, "ok" if ok else "REGRESSED")
        )
        if not ok:
            failures.append(
                "%s: ratio %.3f regressed >%.0f%% from reference %.3f"
                % (name, ratio, MAX_REGRESSION * 100, ref_ratio)
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small n for CI smoke")
    parser.add_argument(
        "--output",
        help="report path (default: BENCH_PR10.json at the repository root, or "
        "bench_graph_quick.json in the working directory with --quick)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the engine meets the PR 10 margins",
    )
    parser.add_argument(
        "--check-against",
        metavar="FILE",
        help="also gate ratios against a committed same-mode report",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_OUTPUT if args.quick else DEFAULT_OUTPUT

    report = {"pr": 10, "mode": "quick" if args.quick else "full", "benchmarks": {}}
    failures = []
    for name, (runner, kwargs_full, kwargs_quick, gate) in SCENARIOS.items():
        kwargs = kwargs_quick if args.quick else kwargs_full
        metric, direction, threshold = gate
        print("measuring %s (%r) ..." % (name, kwargs), flush=True)
        before = runner("before", **kwargs)
        after = runner("after", **kwargs)
        ratio = after[metric] / before[metric]
        if direction == "higher":
            ok = ratio >= threshold
            verdict = "%.2fx %s (gate: >= %.1fx)" % (ratio, metric, threshold)
        else:
            ok = ratio < threshold
            verdict = "%.2fx %s (gate: < %.1fx)" % (ratio, metric, threshold)
        print("  before: %s = %s" % (metric, before[metric]), flush=True)
        print("  after:  %s = %s" % (metric, after[metric]), flush=True)
        print("  %s -> %s" % (verdict, "ok" if ok else "FAIL"), flush=True)
        report["benchmarks"][name] = {
            "metric": metric,
            "direction": direction,
            "gate": threshold,
            "before": before,
            "after": after,
            "ratio": round(ratio, 6),
            "ok": ok,
        }
        if not ok:
            failures.append(name)

    if args.check_against:
        print("comparing against %s ..." % args.check_against, flush=True)
        failures.extend(_check_reference(report, args.check_against))

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if args.check and failures:
        print("graph gate FAILED: %s" % "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
