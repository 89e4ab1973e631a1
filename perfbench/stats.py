"""Per-layer counters read from the program's public stats objects.

Shared by every workload: the summed ``SenderStats`` of a world's
stream senders, its network counters and vat turns, the functions whose
profiled call counts are reported, and the per-layer metrics computed
from them for one round.
"""

from __future__ import annotations

import gc

from perfbench.runner import Round
from repro.entities.guardian import Guardian
from repro.sim.process import Process
from repro.streams.sender import StreamSender


def sender_stats(system):
    """Network counters plus the sum of every stream sender's stats.

    Senders are created per agent deep inside the runtime, so they are
    found by type among live objects rather than through private
    registries; only their public ``stats`` snapshots are read.
    """
    env = system.env
    totals = {"calls": 0, "packets": 0, "window_stalls": 0,
              "retransmissions": 0, "breaks": 0}
    for obj in gc.get_objects():
        if type(obj) is StreamSender and obj.env is env:
            stats = obj.stats.snapshot()
            totals["calls"] += stats["calls_made"]
            totals["packets"] += stats["packets_sent"]
            totals["window_stalls"] += stats["window_stalls"]
            totals["retransmissions"] += stats["retransmissions"]
            totals["breaks"] += stats["breaks"]
    net = system.stats()
    totals["msgs"] = net["messages_sent"]
    totals["bytes"] = net["bytes_sent"]
    totals["vat_turns"] = 0 if env.vat is None else env.vat.callbacks_run
    return totals


#: Functions whose call counts the stream workloads report.
SIM_TAPS = {"resumes": Process._resume, "spawns": Guardian.spawn_handler}


def stream_layer_metrics(first: Round):
    """The per-layer metrics every stream workload reports.

    Counters are divided by the operations they were counted over:
    ``counters["ops"]`` when a workload counts over more than one round's
    operations, else the round's own.
    """
    c = first.counters
    ops = c.get("ops", first.ops)
    return {
        "sim.resumes_per_op": first.taps.get("resumes", 0) / first.ops,
        "net.msgs_per_op": c["msgs"] / ops,
        "net.bytes_per_op": c["bytes"] / ops,
        "streams.calls_per_packet": c["calls"] / c["packets"] if c["packets"] else 0.0,
        "streams.window_stalls_per_op": c["window_stalls"] / ops,
        "streams.retransmissions": c["retransmissions"],
        "streams.breaks": c["breaks"],
        "entities.handler_spawns_per_op": first.taps.get("spawns", 0) / first.ops,
        "concurrency.vat_turns_per_op": c["vat_turns"] / ops,
        "graph.frames_per_graph": 0.0,
        "graph.units_per_frame": 0.0,
        "graph.collect_residue_per_graph": 0.0,
        "rt.frames_per_op": c.get("rt_frames", 0) / ops,
        "rt.driver_steps_per_op": c.get("driver_steps", 0) / ops,
    }


class StreamWorkload:
    """Base of the workloads, with the defaults most of them share.

    A workload provides ``name``, ``simulated`` (whether every round must
    repeat its simulated results exactly), ``setup() -> world``,
    ``run(world) -> Round``, ``check(world, round)`` (raises
    ``CheckFailed``), ``counters(world, round) -> dict``, ``taps`` (name
    -> function whose profiled calls are counted),
    ``layer_metrics(first_traced_round) -> dict``, ``workers(world)``
    (pids of the processes the world spawned, pinned to this one's CPU)
    and ``teardown(world)``.
    """

    simulated = True
    taps = SIM_TAPS

    def layer_metrics(self, first: Round):
        return stream_layer_metrics(first)

    def workers(self, world):
        return ()

    def teardown(self, world) -> None:
        pass
