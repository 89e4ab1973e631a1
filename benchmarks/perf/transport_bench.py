"""Transport benchmark: legacy go-back-N vs the PR 5 adaptive transport.

Unlike ``run_bench.py`` (wall-clock hot-path rates), this benchmark
measures *protocol efficiency* in deterministic simulated units, so its
numbers are bit-reproducible across machines and CI runs.  The link
model is a 1988-grade long-fat-ish pipe: 5 s propagation delay, finite
bandwidth (bytes cost wire time, occupying the sender), and a small
per-message kernel cost — the regime the paper's transport design
actually targets.  With free bandwidth, go-back-N's giant resends cost
nothing and the comparison is meaningless.

* ``lossy_link`` — a client pipelines echo calls over a link that drops
  2% of messages, repeated over several RNG seeds.  Metric: aggregate
  throughput in calls per simulated second.  The legacy transport pays
  a full fixed-RTO stall per drop and then go-back-N-retransmits every
  unacked call (tens of kilobytes of redundant wire time); the adaptive
  transport recovers via duplicate-ack fast retransmit and reply-gap
  probes at ~RTT, skips calls the receiver already holds (SACK), and
  keeps its RTO tracking the path.

* ``bulk_pipeline`` — a client pushes a large burst of calls over a
  clean link.  Metric: wire messages for the whole run.  The legacy
  transport is pinned at ``batch_size=8`` packets; AIMD batching grows
  the effective batch toward ``max_batch_size`` on clean acks, so the
  same burst crosses the wire in far fewer packets.

"Before" is the legacy fixed-function configuration
(:meth:`StreamConfig.legacy`), "after" the adaptive one — both run
against the *current* tree, so the comparison isolates the transport
strategy itself.

Usage::

    PYTHONPATH=src python benchmarks/perf/transport_bench.py          # full
    PYTHONPATH=src python benchmarks/perf/transport_bench.py --quick  # CI
    PYTHONPATH=src python benchmarks/perf/transport_bench.py --check  # gate

``--check`` exits non-zero unless the adaptive transport beats legacy by
the PR 5 acceptance margins (>= 1.5x lossy-link throughput, strictly
fewer bulk-pipeline wire messages).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR5.json")
#: Where ``--quick`` writes by default: the working directory, never
#: over the committed full-mode report.
QUICK_OUTPUT = "bench_transport_quick.json"

if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.entities import ArgusSystem  # noqa: E402
from repro.net.faults import LinkFaultInjector, LinkFaultProfile  # noqa: E402
from repro.streams import StreamConfig  # noqa: E402
from repro.types import INT, HandlerType  # noqa: E402

ECHO = HandlerType(args=[INT], returns=[INT])

LATENCY = 5.0
BANDWIDTH = 1_000.0  # bytes per simulated second: bytes cost wire time
KERNEL_OVERHEAD = 0.1
DROP_RATE = 0.02
BASE_SEED = 11

#: Shared protocol knobs, so before/after differ only in transport
#: strategy (go-back-N/fixed-RTO/static batch vs SACK/adaptive-RTO/AIMD).
COMMON = dict(
    batch_size=8,
    reply_batch_size=8,
    max_buffer_delay=2.0,
    reply_max_delay=2.0,
    rto=20.0,
    ack_delay=2.0,
    reply_ack_delay=6.0,
    max_retries=20,
)

LEGACY = StreamConfig.legacy(**COMMON)
ADAPTIVE = StreamConfig(
    max_batch_size=64,
    min_rto=2.0,
    max_rto=60.0,
    max_inflight_calls=256,
    **COMMON
)


def _build_world(config, seed, profile=None):
    system = ArgusSystem(
        seed=seed,
        latency=LATENCY,
        bandwidth=BANDWIDTH,
        kernel_overhead=KERNEL_OVERHEAD,
        stream_config=config,
    )
    server = system.create_guardian("server")
    server.state["echo_calls"] = 0

    def echo(ctx, x):
        ctx.guardian.state["echo_calls"] += 1
        return x
        yield  # handler protocol: body is a generator

    server.create_handler("echo", ECHO, echo)
    client = system.create_guardian("client")
    if profile is not None:
        system.network.install_link_faults(
            LinkFaultInjector(system.rng.stream("chaos.link"), default=profile)
        )
    return system, server, client


def _drive(system, server, client, n, chunk):
    """Pipeline *n* echo calls in *chunk*-sized flushed waves, claim all."""

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = []
        for base in range(0, n, chunk):
            promises.extend(
                echo.stream(index) for index in range(base, min(base + chunk, n))
            )
            echo.flush()
            yield ctx.sleep(1.0)
        total = 0
        for promise in promises:
            total += yield promise.claim()
        return total, echo.stream_sender.stats.snapshot()

    process = client.spawn(main)
    total, sender_stats = system.run(until=process)
    assert total == n * (n - 1) // 2, "wrong echo sum: transport corrupted data"
    assert server.state["echo_calls"] == n, "echo did not run exactly once per call"
    assert sender_stats["breaks"] == 0, "stream broke mid-benchmark"
    return sender_stats


def lossy_link(config, n=400, seeds=3):
    """Aggregate calls per simulated second over a 2%-drop link.

    Loss placement dominates single-run times (one unlucky tail drop is
    a whole recovery cycle), so the metric aggregates *seeds* runs of
    *n* calls each on consecutive RNG seeds.
    """
    profile = LinkFaultProfile(drop_rate=DROP_RATE)
    total_time = 0.0
    per_seed = []
    totals = {"retransmissions": 0, "fast_retransmits": 0,
              "reply_gap_probes": 0, "retransmitted_calls_avoided": 0}
    for seed in range(BASE_SEED, BASE_SEED + seeds):
        system, server, client = _build_world(config, seed, profile=profile)
        stats = _drive(system, server, client, n, chunk=32)
        total_time += system.now
        per_seed.append(round(system.now, 6))
        for key in totals:
            totals[key] += stats[key]
    result = {
        "n": n,
        "seeds": seeds,
        "drop_rate": DROP_RATE,
        "sim_seconds_per_seed": per_seed,
        "sim_seconds_total": round(total_time, 6),
        "calls_per_sim_sec": round(n * seeds / total_time, 6),
    }
    result.update(totals)
    return result


def bulk_pipeline(config, n=800):
    """Wire messages to push *n* calls over a clean link."""
    system, server, client = _build_world(config, BASE_SEED)
    stats = _drive(system, server, client, n, chunk=256)
    return {
        "n": n,
        "sim_seconds": round(system.now, 6),
        "wire_messages": system.stats()["messages_sent"],
        "packets_sent": stats["packets_sent"],
        "window_stalls": stats["window_stalls"],
        "max_inflight": stats["max_inflight"],
    }


#: scenario -> (runner, full kwargs, --quick kwargs, (metric, direction, gate))
SCENARIOS = {
    "lossy_link": (
        lossy_link,
        {"n": 400, "seeds": 8},
        {"n": 400, "seeds": 3},
        ("calls_per_sim_sec", "higher", 1.5),
    ),
    "bulk_pipeline": (
        bulk_pipeline,
        {"n": 2_000},
        {"n": 800},
        ("wire_messages", "lower", 1.0),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small n for CI smoke")
    parser.add_argument(
        "--output",
        help="report path (default: BENCH_PR5.json at the repository root, or "
        "bench_transport_quick.json in the working directory with --quick)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless adaptive meets the PR 5 margins",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_OUTPUT if args.quick else DEFAULT_OUTPUT

    report = {"pr": 5, "mode": "quick" if args.quick else "full", "benchmarks": {}}
    failures = []
    for name, (runner, kwargs_full, kwargs_quick, gate) in SCENARIOS.items():
        kwargs = kwargs_quick if args.quick else kwargs_full
        metric, direction, threshold = gate
        print("measuring %s (%r) ..." % (name, kwargs), flush=True)
        before = runner(LEGACY, **kwargs)
        after = runner(ADAPTIVE, **kwargs)
        ratio = after[metric] / before[metric]
        if direction == "higher":
            ok = ratio >= threshold
            verdict = "%.2fx %s (gate: >= %.1fx)" % (ratio, metric, threshold)
        else:
            ok = ratio < threshold
            verdict = "%.2fx %s (gate: < %.1fx)" % (ratio, metric, threshold)
        print(
            "  before (legacy):   %s = %s" % (metric, before[metric]), flush=True
        )
        print(
            "  after  (adaptive): %s = %s" % (metric, after[metric]), flush=True
        )
        print(
            "  %s -> %s" % (verdict, "ok" if ok else "FAIL"), flush=True
        )
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

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if args.check and failures:
        print("transport gate FAILED: %s" % ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
