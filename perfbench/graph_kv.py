"""``graph_kv``: the Zipf-skewed cross-shard promise graph on 4 shards.

Every submission builds a fresh graph of 200 two-hop chains
(``add`` -> ``scale``) joined 4-wise by collectors: 450 routines per
graph, scheduling keys drawn Zipf(1.2) over 64 keys, state keys unique
to the graph.  Four graphs are outstanding at a time (a closed loop of
four lanes), and every emitted join is checked against its closed form
``3 * (d0 + d1 + d2 + d3)``.

It loads ``graph`` and the routine-tree codec in ``encoding`` plus
batched stream entries, and skips the spawning of one process per
handler call for the cascade itself.  It is the only workload where
per-graph state left behind in shard guardians can show.

Waits are bounded: when the round's simulated settle budget runs out,
``GraphRuntime.abandon()`` breaks every pending promise and the graphs
involved count as failed.
"""

from __future__ import annotations

import bisect
import random
import time

from perfbench.runner import CheckFailed, Round, quantile
from perfbench.stats import SIM_TAPS, StreamWorkload, sender_stats, stream_layer_metrics
from repro.core.exceptions import ArgusError
from repro.entities.system import ArgusSystem
from repro.graph import GraphBuilder, GraphRuntime, register_routine
from repro.graph import codec
from repro.types import INT, STRING

LATENCY = 1.0
KERNEL_OVERHEAD = 0.1
N_SHARDS = 4
KEYSPACE = 64
ZIPF_S = 1.2
FAN_IN = 4
CHAINS = 200
ROUTINES = CHAINS * 2 + CHAINS // FAN_IN
LANES = 4
#: Graphs per round: a fraction of a second of host time, so that the
#: host-speed readings around a round describe it (see runner.one_round).
GRAPHS = 8
#: Graphs whose simulated latencies and throughput are reported, driven
#: once per run (in the first round) so that p99 has samples beyond it.
REFERENCE_GRAPHS = 96
#: Simulated seconds a round may take per graph before the runtime
#: abandons what is still pending (a graph takes about 40 today).
SETTLE_PER_GRAPH = 100.0


def _pb_add(state, captures, inputs):
    key, delta = captures
    data = state.setdefault("data", {})
    data[key] = data.get(key, 0) + delta
    return (data[key],)


def _pb_scale(state, captures, inputs):
    (factor,) = captures
    (value,) = inputs
    return (value * factor,)


def _pb_sum(state, captures, inputs):
    return (sum(values[0] for values in inputs),)


register_routine(
    "pb.add", _pb_add, capture_types=(STRING, INT), output_types=(INT,), cost=0.05
)
register_routine(
    "pb.scale", _pb_scale, capture_types=(INT,), input_types=(INT,),
    output_types=(INT,), cost=0.05,
)
register_routine("pb.sum", _pb_sum, input_types=(INT,), output_types=(INT,), cost=0.05)

TAPS = dict(SIM_TAPS)
TAPS["frames"] = codec.encode_batch_frame
TAPS["units"] = codec._encode_unit


def _zipf_cdf():
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYSPACE)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


class _Plan:
    """One graph's generated inputs: scheduling keys and chain deltas."""

    __slots__ = ("keys", "deltas", "expected")

    def __init__(self, rng, cdf) -> None:
        self.keys = [bisect.bisect_left(cdf, rng.random()) for _ in range(ROUTINES)]
        self.deltas = [rng.randrange(1, 1000) for _ in range(CHAINS)]
        self.expected = {
            "join%d" % (index + FAN_IN - 1): (3 * sum(self.deltas[index:index + FAN_IN]),)
            for index in range(0, CHAINS, FAN_IN)
        }

    def build(self, graph_index: int) -> GraphBuilder:
        keys = iter(self.keys)
        g = GraphBuilder()
        pending = []
        for index, delta in enumerate(self.deltas):
            src = g.source(
                "pb.add", captures=("g%d.c%d" % (graph_index, index), delta),
                sched_key=next(keys),
            )
            pending.append(src.then("pb.scale", captures=(3,), sched_key=next(keys)))
            if len(pending) == FAN_IN:
                g.collect("pb.sum", inputs=pending, sched_key=next(keys)).emit(
                    "join%d" % index
                )
                pending = []
        return g


class GraphKv(StreamWorkload):
    name = "graph_kv"
    taps = TAPS

    def __init__(self, seed: int, graphs: int = GRAPHS,
                 reference_graphs: int = REFERENCE_GRAPHS) -> None:
        rng = random.Random(seed)
        cdf = _zipf_cdf()
        self.seed = seed
        self.graphs = graphs
        self.plans = [_Plan(rng, cdf) for _ in range(max(graphs, reference_graphs))]
        self.reference_graphs = reference_graphs
        #: Simulated metrics of the reference graphs, once they have run.
        self._reference = None

    def setup(self):
        system = ArgusSystem(seed=self.seed, latency=LATENCY, kernel_overhead=KERNEL_OVERHEAD)
        names = ["shard%d" % index for index in range(N_SHARDS)]
        runtime = GraphRuntime(system, names, origin="client")
        shards = [system.create_guardian(name) for name in names]
        for shard in shards:
            runtime.install_shard(shard)
        client = system.create_guardian("client")
        runtime.install_origin(client)
        return {"system": system, "runtime": runtime, "shards": shards, "client": client}

    def run(self, world) -> Round:
        result = Round()
        sim_latencies = self._drive(world, self.plans[:self.graphs], result)
        result.ops = result.attempted - result.failed
        if self._reference is None:
            # The reference graphs run once per run, inside the first
            # round, whose throughput is then the lowest and never reported.
            reference = self.setup()
            latencies = self._drive(reference, self.plans[:self.reference_graphs], result)
            self.check(reference, result)
            elapsed = reference["system"].now
            rate = ROUTINES * len(latencies) / elapsed
            self._reference = {
                "sim_ops_per_sim_s": rate,
                "sim_latency_p50": quantile(latencies, 0.50),
                "sim_latency_p99": quantile(latencies, 0.99),
                "max_rate_in_slo": rate,
                "samples": len(latencies),
            }
        result.sim = dict(self._reference, round_latencies=sim_latencies,
                          round_elapsed=world["system"].now)
        return result

    def _drive(self, world, plans, result: Round):
        """Run *plans* four at a time; returns their simulated latencies."""
        system, runtime = world["system"], world["runtime"]
        settle = SETTLE_PER_GRAPH * len(plans)
        next_graph = [0]
        sim_latencies = []
        outcomes = world["outcomes"] = {}
        clock = time.perf_counter

        def lane(ctx):
            while next_graph[0] < len(plans) and ctx.now < settle:
                index = next_graph[0]
                next_graph[0] += 1
                started, issued = ctx.now, clock()
                promises = runtime.submit(ctx, plans[index].build(index))
                values = {}
                try:
                    for tag, promise in promises.items():
                        value = yield promise.claim()
                        values[tag] = value if isinstance(value, tuple) else (value,)
                except ArgusError:
                    outcomes[index] = None
                    continue
                outcomes[index] = values
                sim_latencies.append(ctx.now - started)
                result.latencies_ms.append((clock() - issued) * 1000.0)

        system.env.call_at(settle, runtime.abandon)
        lanes = [world["client"].spawn(lane) for _ in range(LANES)]
        for process in lanes:
            try:
                system.run(until=process)
            except RuntimeError:
                # Ran out of events with graphs still pending.
                runtime.abandon()
                try:
                    system.run(until=process)
                except RuntimeError:
                    pass
        done = sum(1 for values in outcomes.values() if values is not None)
        result.attempted += ROUTINES * len(plans)
        result.failed += ROUTINES * (len(plans) - done)
        return sim_latencies

    def check(self, world, result: Round) -> None:
        for index, values in world["outcomes"].items():
            if values is not None and values != self.plans[index].expected:
                raise CheckFailed("graph %d emitted wrong join values" % index)

    def counters(self, world, result: Round):
        counters = sender_stats(world["system"])
        counters["residue"] = sum(
            1
            for shard in world["shards"]
            for key in shard.state
            if isinstance(key, tuple) and key[:1] == ("graph.collect",)
        )
        return counters

    def layer_metrics(self, first: Round):
        values = stream_layer_metrics(first)
        graphs = first.ops / ROUTINES
        frames = first.taps["frames"]
        values["graph.frames_per_graph"] = frames / graphs
        values["graph.units_per_frame"] = first.taps["units"] / frames
        values["graph.collect_residue_per_graph"] = first.counters["residue"] / graphs
        return values
