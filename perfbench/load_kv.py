"""``load_kv``: the open-loop sharded key-value load on the simulator.

Four client guardians issue on behalf of 10^5 agents against two kv
shards: Zipf(1.1) keys over 10^4, 75% ``add`` / 25% ``get``, Poisson
arrivals, Zipf(1.05) agent activity and connection churn (an agent
found disconnected pays a 5 ms reconnect before its request goes out).
Every request is a stream call completed by an ``on_resolved`` vat
continuation, latencies go into the streaming histogram and windowed
collector of ``repro.obs``, and flushes are timer-driven.  The loop is
open, so queueing and the tail show.

Each rung of the ladder is a fresh world offered one rate: 4 simulated
seconds of issuing, then a drain of at most 20.  The ladder runs once
per run and gives the simulated metrics; a round, which gives the host
metrics and the profile, is one simulated second at the reference
rate.  The topology, traffic model and transport are those of
``benchmarks.load`` (its kv workload at 1% churn); the driver is this
module's own, because it counts every attempt, including issues
deferred by a reconnect past the end of the issuing phase, and the adds
acknowledged on each key, which the output check compares with the
shards' state.
"""

from __future__ import annotations

import time
from collections import Counter

from benchmarks.load.arrivals import ZipfSampler
from benchmarks.load.harness import KvLoad, LoadConfig, _make_churn, load_stream_config
from perfbench.runner import CheckFailed, Round
from perfbench.stats import StreamWorkload, sender_stats
from repro.core.exceptions import ArgusError
from repro.entities.system import ArgusSystem
from repro.obs.metrics import Metrics
from repro.obs.timeseries import WindowedCollector

#: Offered rates (requests per simulated second); the knee lies inside.
LADDER = (3200.0, 4800.0, 6400.0)
#: The rung whose simulated latency and throughput are reported and at
#: whose rate every round runs: below the knee, where the tail is a
#: property of the system rather than of the seed.
REFERENCE_RATE = 3200.0
#: The committed kv latency SLO: p99 at most this many simulated seconds.
SLO_P99 = 0.25
DURATION = 4.0
#: Issuing phase of a round: a fraction of a second of host time, so that
#: the host-speed readings around a round describe it (runner.one_round).
ROUND_DURATION = 1.0
CHURN_RATE = 0.01


class _Rung:
    """One offered rate in a fresh world: the kv topology and traffic model
    of ``benchmarks.load``, driven by a driver that counts every attempt
    and the adds acknowledged on each key."""

    def __init__(self, seed: int, rate: float, duration: float = DURATION) -> None:
        self.config = config = LoadConfig(
            workload="kv", rate=rate, duration=duration, seed=seed,
            churn_rate=CHURN_RATE,
        )
        self.rate = rate
        self.system = system = ArgusSystem(
            latency=config.latency,
            bandwidth=config.bandwidth,
            kernel_overhead=config.kernel_overhead,
            jitter=config.jitter,
            seed=seed,
            stream_config=load_stream_config(config),
        )
        env = system.env
        self.collector = WindowedCollector(
            window=config.window, clock=lambda: env.now,
            relative_error=config.relative_error,
        )
        self.metrics = Metrics(
            streaming=True, relative_error=config.relative_error,
            collector=self.collector,
        )
        self.kv = KvLoad()
        self.kv.build(system, config)
        self.shards = [system.guardian("shard%d" % index)
                       for index in range(config.n_servers)]
        self.connected = bytearray(b"\x01") * config.n_agents
        self.keys = ZipfSampler(config.n_keys, config.key_skew)
        self.inflight = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        #: key -> adds acknowledged; None once an add on it failed or was
        #: cut off in flight, so its outcome at the shard is unknown.
        self.acked_adds = {}
        #: key -> adds issued and not yet resolved.
        self.pending_adds = Counter()
        self.latencies_ms = []
        for index in range(config.n_clients):
            client = system.create_guardian("client%d" % index)
            client.spawn(self._driver(index), label="load-driver-%d" % index)
            client.spawn(
                _make_churn(index, config, system, self.metrics, self.connected),
                label="load-churn-%d" % index,
            )

    def _driver(self, index: int):
        config, system, metrics = self.config, self.system, self.metrics
        env = system.env
        arrivals = system.rng.stream("load.arrivals.%d" % index)
        agent_rng = system.rng.stream("load.agents.%d" % index)
        op_rng = system.rng.stream("load.ops.%d" % index)
        agents = ZipfSampler(config.n_agents, config.agent_skew)
        rate = config.rate / config.n_clients
        clock = time.perf_counter
        acked, pending = self.acked_adds, self.pending_adds

        def finish(outcome, t0, issued, key):
            self.inflight -= 1
            metrics.observe("load.latency", env.now - t0)
            if key is not None:
                pending[key] -= 1
            if outcome.is_normal:
                self.completed += 1
                metrics.inc("load.completed")
                self.latencies_ms.append((clock() - issued) * 1000.0)
                if key is not None and acked.get(key, 0) is not None:
                    acked[key] = acked.get(key, 0) + 1
            else:
                self.failed += 1
                metrics.inc("load.errors", condition=outcome.condition)
                if key is not None:
                    acked[key] = None

        def issue(agent, t0):
            self.attempted += 1
            key = self.keys.sample(op_rng)
            add, get = handles[key % config.n_servers]
            issued = clock()
            try:
                if op_rng.random() < config.kv_read_fraction:
                    promise, added = get.stream(key), None
                else:
                    promise, added = add.stream(key, 1), key
            except ArgusError as exc:
                self.failed += 1
                metrics.inc("load.errors", condition=exc.condition)
                return
            metrics.inc("load.issued")
            self.inflight += 1
            if added is not None:
                pending[added] += 1
            promise.on_resolved(
                lambda outcome: finish(outcome, t0, issued, added)
            )

        handles = []

        def driver(ctx):
            handles.extend(self.kv.bind(ctx, config))
            while True:
                gap = arrivals.expovariate(rate)
                if ctx.now + gap >= config.duration:
                    return
                yield ctx.sleep(gap)
                agent = agents.sample(agent_rng)
                if self.connected[agent]:
                    issue(agent, ctx.now)
                else:
                    self.connected[agent] = 1
                    metrics.inc("load.reconnects")
                    env.call_in(config.reconnect_penalty, issue, agent, ctx.now)

        return driver

    def run(self) -> None:
        config, system = self.config, self.system
        env = system.env
        horizon = config.duration + config.drain_timeout

        def occupancy():
            self.collector.gauge("load.inflight", self.inflight)
            if env.now < horizon:
                env.call_in(config.window, occupancy)

        env.call_in(config.window / 2.0, occupancy)
        system.run(until=config.duration + config.reconnect_penalty)
        while self.inflight > 0 and system.now < horizon:
            system.run(until=min(system.now + 0.5, horizon))
        self.drained = self.inflight == 0
        # Requests still in flight when the drain is cut off count as
        # failed, and a shard may or may not have applied their adds.
        self.failed += self.inflight
        for key, count in self.pending_adds.items():
            if count:
                self.acked_adds[key] = None
        snapshot = self.metrics.merged_histogram("load.latency").snapshot()
        self.samples = snapshot["count"]
        self.p50 = snapshot["p50"]
        self.p99 = snapshot["p99"]
        self.in_slo = self.drained and self.p99 <= SLO_P99


def max_rate_in_slo(rungs) -> float:
    """The offered rate at which p99 reaches the SLO.

    Interpolated linearly in p99 between the last rung inside the SLO
    and the first one outside it, so a seed that moves the tail a little
    moves the figure a little rather than by a whole rung; the top rung
    when every rung is inside, the bottom one's rate scaled down by its
    p99 overshoot when none is.
    """
    previous = None
    for rung in rungs:
        if not rung.in_slo:
            if previous is None:
                return rung.rate * SLO_P99 / rung.p99 if rung.drained else rung.rate / 2.0
            if not rung.drained:
                return previous.rate
            share = (SLO_P99 - previous.p99) / (rung.p99 - previous.p99)
            return previous.rate + share * (rung.rate - previous.rate)
        previous = rung
    return previous.rate


class LoadKv(StreamWorkload):
    name = "load_kv"

    def __init__(self, seed: int, ladder=LADDER, reference=REFERENCE_RATE,
                 round_duration: float = ROUND_DURATION) -> None:
        self.seed = seed
        self.ladder = ladder
        self.reference = reference
        self.round_duration = round_duration
        #: Simulated metrics, transport counters and completions of the
        #: ladder, once it has run.
        self._ladder = None

    def setup(self):
        return {"rung": _Rung(self.seed, self.reference, self.round_duration)}

    def run(self, world) -> Round:
        rung = world["rung"]
        rung.run()
        result = Round()
        result.attempted, result.failed = rung.attempted, rung.failed
        result.ops = rung.attempted - rung.failed
        result.latencies_ms = rung.latencies_ms
        if self._ladder is None:
            # The ladder runs once per run, inside the first round, whose
            # throughput is then the lowest and never reported.
            rungs, counters, completed = [], {}, 0
            for rate in self.ladder:
                other = _Rung(self.seed, rate)
                other.run()
                _check_rung(other)
                result.attempted += other.attempted
                result.failed += other.failed
                completed += other.completed
                for name, value in sender_stats(other.system).items():
                    counters[name] = counters.get(name, 0) + value
                rungs.append(other)
            reference = next(r for r in rungs if r.rate == self.reference)
            counters["ops"] = completed
            self._ladder = ({
                "sim_ops_per_sim_s": reference.completed / DURATION,
                "sim_latency_p50": reference.p50,
                "sim_latency_p99": reference.p99,
                "max_rate_in_slo": max_rate_in_slo(rungs),
                "samples": reference.samples,
                "ladder_p99": [r.p99 for r in rungs],
            }, counters)
        result.sim = dict(self._ladder[0], round_p99=rung.p99, round_end=rung.system.now)
        return result

    def check(self, world, result: Round) -> None:
        _check_rung(world["rung"])

    def counters(self, world, result: Round):
        """Transport counters over the whole ladder, so the flow-control
        stalls and batching of the rungs past the knee show, plus the
        round's own (which must repeat exactly)."""
        counters = dict(self._ladder[1])
        counters["round"] = sorted(sender_stats(world["rung"].system).items())
        return counters


def _check_rung(rung: _Rung) -> None:
    """Every attempt counted once; shards hold exactly the acknowledged adds."""
    if rung.completed + rung.failed != rung.attempted:
        raise CheckFailed(
            "rate %g: %d completed + %d failed != %d attempted"
            % (rung.rate, rung.completed, rung.failed, rung.attempted)
        )
    for shard_index, shard in enumerate(rung.shards):
        data = shard.state["data"]
        for key, adds in rung.acked_adds.items():
            if adds is not None and key % len(rung.shards) == shard_index \
                    and data.get(key, 0) != adds:
                raise CheckFailed(
                    "rate %g: shard%d holds %r for key %d after %d adds"
                    % (rung.rate, shard_index, data.get(key), key, adds)
                )
        extra = set(data) - set(rung.acked_adds)
        if extra:
            raise CheckFailed("rate %g: shard%d holds keys never added: %s"
                              % (rung.rate, shard_index, sorted(extra)[:5]))
