"""The measurement loop shared by every workload.

A workload is measured in *rounds*.  One round builds a fresh world
(timed as set-up), runs a fixed, seed-generated amount of work on it
(timed as the operation phase), checks the outputs and tears the world
down.  Rounds repeat until ``--seconds`` have passed, so wall-clock
metrics are medians over rounds while the simulated results of every
round of a simulator workload must be identical -- a mismatch between
rounds fails the run's correctness check.

Host times are scaled to a reference host: see :func:`one_round`.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) spend the first half of the time untraced, then
install :class:`~perfbench.layers.LayerProfile` around the operation
phase of every later round and report the per-layer metrics, including
``trace.overhead``, the traced-to-untraced ratio of ``ops_per_s``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

from perfbench.layers import LAYERS, LayerProfile

__all__ = [
    "CheckFailed",
    "Round",
    "END_TO_END",
    "PER_LAYER",
    "measure",
    "one_round",
    "quantile",
]

BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(BENCH_ROOT), "src")

#: Rounds every run makes, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "completion_rate": "ratio",
    "peak_rss_mb": "MB",
    "sim_ops_per_sim_s": "1/sim_time",
    "sim_latency_p50": "sim_time",
    "sim_latency_p99": "sim_time",
    "max_rate_in_slo": "1/sim_time",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER["%s.calls_per_op" % _layer] = "count"
    PER_LAYER["%s.self_us_per_op" % _layer] = "us"
PER_LAYER.update({
    "sim.resumes_per_op": "count",
    "net.msgs_per_op": "count",
    "net.bytes_per_op": "B",
    "streams.calls_per_packet": "count",
    "streams.window_stalls_per_op": "count",
    "streams.retransmissions": "count",
    "streams.breaks": "count",
    "entities.handler_spawns_per_op": "count",
    "concurrency.vat_turns_per_op": "count",
    "graph.frames_per_graph": "count",
    "graph.units_per_frame": "count",
    "graph.collect_residue_per_graph": "count",
    "rt.frames_per_op": "count",
    "rt.driver_steps_per_op": "count",
    "trace.overhead": "ratio",
})


class CheckFailed(Exception):
    """A round's outputs disagree with their expected values."""


class Round:
    """What one round did.

    ``sim`` holds the round's simulated-time metrics (the four
    ``sim_*``/``max_rate_in_slo`` entries plus anything else that must
    repeat exactly); ``counters`` holds the per-layer counts read from
    the program's public stats objects; ``latencies_ms`` collects the host
    latency of every operation until the round is summarised into
    ``latency_ms``, its (p50, p99), so memory does not grow with rounds.
    ``speed`` and ``setup_speed`` are the host's speed during the round's
    operation phase and set-up, relative to the reference host.
    """

    __slots__ = ("ops", "attempted", "failed", "sim", "counters", "latencies_ms",
                 "latency_ms", "setup_s", "op_s", "speed", "setup_speed", "layers", "taps")

    def __init__(self) -> None:
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.sim: Dict[str, Any] = {}
        self.counters: Dict[str, float] = {}
        self.latencies_ms: List[float] = []
        self.latency_ms = (0.0, 0.0)
        self.setup_s = 0.0
        self.op_s = 0.0
        self.speed = 1.0
        self.setup_speed = 1.0
        self.layers: Dict[str, Dict[str, int]] = {}
        self.taps: Dict[str, int] = {}


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, int(-(-q * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Time of :func:`_reference_seconds` on the reference host, a quiet core
#: of the 2.1 GHz Xeon the bounds were set on.  Host-time metrics are
#: scaled to that host's speed.
REFERENCE_SECONDS = 0.0025


def _reference_seconds() -> float:
    """Best of three timings of a fixed, program-independent loop."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for index in range(20000):
            table[index & 255] = (index, str(index))
        best = min(best, time.perf_counter() - started)
    return best


def _pin_quietest_cpu(cpus: List[int], workers) -> float:
    """Pin this process and the *workers* (pids) to whichever of *cpus*
    runs the reference loop fastest right now; returns that CPU's
    reference time."""
    if len(cpus) < 2:
        return _reference_seconds()
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((_reference_seconds(), cpu))
    reference, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    for pid in workers:
        os.sched_setaffinity(pid, {cpu})
    return reference


def one_round(workload, traced: bool, cpus: List[int] = ()) -> Round:
    """Set up, run, check, count and tear down one round of *workload*.

    Every round starts from a collected heap, so garbage left by the
    previous round is not charged to this one.  Traced rounds also run
    with the cyclic collector off, so no collection lands at a different
    point of the profile from one round to the next.

    The host's speed is measured next to the timed phases: the reference
    loop runs just before set-up, and on the CPU the operation phase and
    the world's worker processes are pinned to just before and after it.
    On a shared host each CPU's speed drifts by up to 1.5x over tens of
    seconds, mostly independently of the other CPUs, and the reference
    loop follows that drift closely.
    """
    gc.collect()
    setup_reference = _reference_seconds()
    started = time.perf_counter()
    world = workload.setup()
    set_up = time.perf_counter()
    try:
        # Workers run on our CPU too, so the reference loop times the
        # CPU the whole round runs on: a worker left to float between
        # CPUs made the round wait on another CPU's wake-up latency,
        # which the loop does not see.
        reference = _pin_quietest_cpu(cpus, workload.workers(world))
        if traced:
            profile = LayerProfile(SRC_ROOT, BENCH_ROOT)
            gc.collect()
            gc.disable()
            try:
                began = time.perf_counter()
                with profile:
                    result = workload.run(world)
            finally:
                gc.enable()
        else:
            began = time.perf_counter()
            result = workload.run(world)
        finished = time.perf_counter()
        reference = (reference + _reference_seconds()) / 2.0
        workload.check(world, result)
        result.counters = workload.counters(world, result)
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
        workload.teardown(world)
    result.latency_ms = (
        quantile(result.latencies_ms, 0.50), quantile(result.latencies_ms, 0.99)
    )
    result.latencies_ms = []
    result.setup_s = set_up - started
    result.op_s = finished - began
    result.speed = REFERENCE_SECONDS / reference
    result.setup_speed = REFERENCE_SECONDS / setup_reference
    if traced:
        result.layers = profile.table()
        result.taps = {
            name: profile.count(function)
            for name, function in workload.taps.items()
        }
    return result


def _rounds(workload, deadline: float, minimum: int, traced: bool) -> List[Round]:
    """At least *minimum* rounds, then more while one more would end
    less than half a round past *deadline*."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    rounds: List[Round] = []
    last = 0.0
    while len(rounds) < minimum or time.perf_counter() + last / 2.0 < deadline:
        started = time.perf_counter()
        rounds.append(one_round(workload, traced, cpus))
        last = time.perf_counter() - started
    return rounds


def _ops_per_s(rounds: List[Round]) -> float:
    """Median throughput, each round's scaled to the reference host."""
    return statistics.median(r.ops / r.op_s / r.speed for r in rounds)


def _repeats(rounds: List[Round], key: str) -> bool:
    first = getattr(rounds[0], key)
    return all(getattr(r, key) == first for r in rounds[1:])


#: Simulated-time metrics that are rates; the others are durations.
_SIM_RATES = ("sim_ops_per_sim_s", "max_rate_in_slo")


def _sim_metrics(workload, rounds: List[Round]) -> Dict[str, float]:
    """The simulated metrics, which repeat exactly on the simulator; on
    the wallclock backend they are host times, medians over rounds scaled
    to the reference host like the other host metrics."""
    if workload.simulated:
        return rounds[0].sim
    return {
        name: statistics.median(
            r.sim[name] / r.speed if name in _SIM_RATES else r.sim[name] * r.speed
            for r in rounds
        )
        for name in rounds[0].sim
        if name != "samples"
    }


def end_to_end(workload, rounds: List[Round]) -> Dict[str, float]:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    sim = _sim_metrics(workload, rounds)
    return {
        "setup_s": statistics.median(r.setup_s * r.setup_speed for r in rounds),
        "ops_per_s": _ops_per_s(rounds),
        "completion_rate": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "sim_ops_per_sim_s": sim["sim_ops_per_sim_s"],
        "sim_latency_p50": sim["sim_latency_p50"],
        "sim_latency_p99": sim["sim_latency_p99"],
        "max_rate_in_slo": sim["max_rate_in_slo"],
        "latency_p50_ms": statistics.median(r.latency_ms[0] * r.speed for r in rounds),
        "latency_p99_ms": statistics.median(r.latency_ms[1] * r.speed for r in rounds),
    }


def per_layer(workload, untraced: List[Round], traced: List[Round]) -> Dict[str, float]:
    first = traced[0]
    ops = first.ops
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values["%s.calls_per_op" % layer] = first.layers[layer]["calls"] / ops
        values["%s.self_us_per_op" % layer] = statistics.median(
            r.layers[layer]["self_s"] * r.speed / r.ops * 1e6 for r in traced
        )
    values.update(workload.layer_metrics(first))
    values["trace.overhead"] = _ops_per_s(traced) / _ops_per_s(untraced)
    return values


def measure(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run *workload* for about *seconds*; returns the result object."""
    started = time.perf_counter()
    problems: List[str] = []
    try:
        if trace:
            untraced = _rounds(workload, started + seconds / 2.0, 2, False)
            traced = _rounds(workload, started + seconds, 1, True)
            rounds = untraced + traced
            metrics = per_layer(workload, untraced, traced)
            units = PER_LAYER
            if workload.simulated:
                calls = [{k: v["calls"] for k, v in r.layers.items()} for r in traced]
                if any(c != calls[0] for c in calls) or not _repeats(traced, "taps"):
                    problems.append("traced rounds disagree on per-layer calls")
                if not _repeats(rounds, "counters"):
                    problems.append("rounds disagree on per-layer counters")
        else:
            rounds = _rounds(workload, started + seconds, MIN_ROUNDS, False)
            metrics = end_to_end(workload, rounds)
            units = END_TO_END
        if workload.simulated and not _repeats(rounds, "sim"):
            problems.append("rounds disagree on simulated results")
    except CheckFailed as exc:
        problems.append("output check failed: %s" % exc)
        rounds, metrics, units = [], {}, {}
    for problem in problems:
        print("perfbench: %s: %s" % (workload.name, problem), file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": sum(r.failed for r in rounds) if rounds else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
        "rounds": len(rounds),
        "samples": rounds[0].sim.get("samples") if rounds else None,
    }
