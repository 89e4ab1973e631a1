"""Reproductions of known defects the benchmark's workloads steer clear of.

Usage, from the root of a checkout::

    python3 perfbench/defects.py graph_stall
    python3 perfbench/defects.py rt_burst
    python3 perfbench/defects.py rt_reused_name

Each prints what it observed and exits 1 while the defect is present,
0 once it is gone.  None of them is fixed by the benchmark, and no
workload is sized to hide them (see README.md).
"""

from __future__ import annotations

import os
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The smallest single submission of the graph_bench DAG that stalls, at
#: the seed it was found with.
STALL_CHAINS = 6716
STALL_SEED = 11
#: Stream calls issued before the first claim in ``rt_burst``.
BURST_CALLS = 30000


def graph_stall() -> int:
    """One submit of STALL_CHAINS two-hop chains (the graph_bench DAG)."""
    from benchmarks.perf.graph_bench import _build_dag, _build_world
    from perfbench.stats import sender_stats

    system, runtime, client = _build_world(STALL_SEED)
    g, _ = _build_dag(STALL_SEED, STALL_CHAINS)

    def main(ctx):
        promises = runtime.submit(ctx, g)
        for promise in promises.values():
            yield promise.claim()

    process = client.spawn(main)
    try:
        system.run(until=process)
    except RuntimeError as exc:
        stats = sender_stats(system)
        print("stalled at sim time %.1f: %s" % (system.now, exc))
        print("%d graph promises never resolved; senders: %d retransmissions, %d breaks"
              % (runtime.pending_count(), stats["retransmissions"], stats["breaks"]))
        return 1
    print("%d chains completed at sim time %.1f" % (STALL_CHAINS, system.now))
    return 0


def _echo_cluster():
    from perfbench.rt_echo import ECHO, setup_server
    from repro.rt import RtCluster

    cluster = RtCluster({"node:server": setup_server})
    cluster.start()
    return cluster, ECHO


def _claim_all(host, guardian, calls: int, timeout: float, base: int = 0):
    """Stream ``echo(base + i)`` for every i, flush, claim all in order."""
    from repro.core.exceptions import ArgusError
    from repro.rt import WallclockTimeout

    outcome = {"ok": 0, "wrong": 0, "unavailable": 0, "first_failure_s": None,
               "timed_out": False}
    started = time.perf_counter()

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(base + index) for index in range(calls)]
        ref.flush()
        for index, promise in enumerate(promises):
            try:
                value = yield promise.claim()
            except ArgusError:
                outcome["unavailable"] += 1
                if outcome["first_failure_s"] is None:
                    outcome["first_failure_s"] = time.perf_counter() - started
                continue
            outcome["ok" if value == base + index else "wrong"] += 1

    try:
        host.run(until=guardian.spawn(main), timeout=timeout)
    except WallclockTimeout:
        outcome["timed_out"] = True
    return outcome


def _describe(outcome) -> str:
    text = "%d ok, %d wrong value, %d unavailable" % (
        outcome["ok"], outcome["wrong"], outcome["unavailable"])
    if outcome["first_failure_s"] is not None:
        text += " (first after %.2f s)" % outcome["first_failure_s"]
    if outcome["timed_out"]:
        text += ", timed out"
    return text


def rt_burst() -> int:
    """BURST_CALLS stream calls issued before the first claim, over TCP.

    Where the defect was first seen 15,000 calls were enough; the
    threshold moves with how long issuing the burst takes, and 30,000
    break the stream on a 2-vCPU x86-64 host.
    """
    cluster, echo = _echo_cluster()
    try:
        host = cluster.client_host()
        host.declare("server", "echo", echo, node="node:server")
        outcome = _claim_all(host, host.create_guardian("client"), BURST_CALLS, 60.0)
        sent = host.stats()["messages_sent"]
        host.shutdown()
        workers = cluster.stop()
    except BaseException:
        cluster.kill()
        raise
    print("%d calls: %s; client sent %d frames, worker %d" % (
        BURST_CALLS, _describe(outcome), sent,
        sum(stats["messages_sent"] for stats in workers.values())))
    return 0 if outcome["ok"] == BURST_CALLS else 1


def rt_reused_name() -> int:
    """A second client host reusing the first one's guardian name.

    Each host is a fresh ``RtHost`` on the same cluster, with the default
    node name and a guardian named ``client``.  After a first host made
    2,000 calls the second one's calls all break with ``unavailable``;
    after a first host made 64, the second one is handed the first
    one's replies.
    """
    healthy = True
    for first, second in ((2000, 64), (64, 32)):
        cluster, echo = _echo_cluster()
        try:
            outcomes = []
            for calls, base in ((first, 0), (second, 100000)):
                host = cluster.client_host()
                host.declare("server", "echo", echo, node="node:server")
                outcomes.append(_claim_all(host, host.create_guardian("client"),
                                           calls, 10.0, base))
                host.shutdown()
            cluster.stop()
        except BaseException:
            cluster.kill()
            raise
        print("first host, %d calls: %s" % (first, _describe(outcomes[0])))
        print("second host, %d calls: %s" % (second, _describe(outcomes[1])))
        healthy = healthy and outcomes[1]["ok"] == second
    return 0 if healthy else 1


DEFECTS = {"graph_stall": graph_stall, "rt_burst": rt_burst, "rt_reused_name": rt_reused_name}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in DEFECTS:
        print("usage: python3 perfbench/defects.py {%s}" % ",".join(DEFECTS), file=sys.stderr)
        return 2
    for path in (os.path.join(CHECKOUT, "src"), CHECKOUT):
        if path not in sys.path:
            sys.path.insert(0, path)
    return DEFECTS[argv[0]]()


if __name__ == "__main__":
    sys.exit(main())
