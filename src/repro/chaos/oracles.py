"""End-to-end campaign oracles: what must hold *no matter what chaos did*.

The online :class:`~repro.obs.monitor.MonitorSuite` already checks the
transport invariants (exactly-once, FIFO per incarnation, promise
lifecycle) as events flow.  The oracles here run once, after the run has
settled, and check whole-run properties against the trace, the workload's
outcome report, and the surviving runtime objects:

* **liveness** — the driver ran to completion under the hard time cap
  (every claim resolved; nothing wedged forever);
* **outcome legality** — every claimed promise produced either the
  fault-free value or a legal ``unavailable``/``failure``/signal (the
  workload's own :meth:`~repro.chaos.workloads.Workload.check_outcomes`,
  including the kv workload's base-4 execution ledger);
* **promise resolution** — every promise created during the run was
  resolved exactly once, with a status in the legal vocabulary.  Stream
  breaks must *resolve* promises (to exceptions), never strand them;
* **reincarnation drain** — for every (stream, incarnation) whose sender
  survived, each buffered call was eventually resolved.  With
  ``auto_restart`` this is exactly the "breaks reincarnate and drain"
  guarantee: a break resolves the old incarnation's calls before the next
  incarnation opens.  Streams whose *sending* guardian crashed are exempt —
  a crash discards volatile sender state by design (§4.2), there is no
  sender left to resolve anything;
* **handler leaks** — a stopped dispatcher (stream break, supersede,
  guardian destruction) must not still own a live process running its
  handlers (a sequential stream's driver, or a parallel group's per-call
  processes) once the run has settled: orphans are found and destroyed.

Each oracle returns a list of human-readable problem strings, prefixed
with its name; an empty list everywhere means the run passed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.trace import (
    EV_CALL_BUFFERED,
    EV_CALL_RESOLVED,
    EV_PROMISE_CREATED,
    EV_PROMISE_RESOLVED,
)

__all__ = ["run_oracles", "LEGAL_PROMISE_STATUSES"]

#: The paper's outcome vocabulary: a promise resolves to a normal value,
#: an exception the handler signalled, or the transport-level conditions.
LEGAL_PROMISE_STATUSES = frozenset(
    ("normal", "unavailable", "failure", "exception_reply")
)


def _oracle_liveness(context: Dict[str, Any]) -> List[str]:
    if not context["driver_finished"]:
        return [
            "driver did not finish before the hard cap (t=%.1f): "
            "a claim or synch is wedged forever" % context["hard_cap"]
        ]
    return []


def _oracle_outcomes(context: Dict[str, Any]) -> List[str]:
    workload = context["workload"]
    outcomes = context["outcomes"]
    if not context["driver_finished"]:
        return []  # liveness already failed; outcomes are partial
    return workload.check_outcomes(outcomes)


def _oracle_promises(context: Dict[str, Any]) -> List[str]:
    tracer = context["tracer"]
    problems: List[str] = []
    created = {
        event.fields["promise_id"] for event in tracer.events_of(EV_PROMISE_CREATED)
    }
    resolved: Dict[int, str] = {}
    for event in tracer.events_of(EV_PROMISE_RESOLVED):
        promise_id = event.fields["promise_id"]
        status = event.fields.get("status")
        if promise_id in resolved:
            # The lifecycle monitor reports double resolution online; no
            # need to duplicate it here.
            continue
        resolved[promise_id] = status
        if status is not None and status not in LEGAL_PROMISE_STATUSES:
            # Handler-signalled conditions are part of the handler type;
            # the workload declares which are legitimate.
            if status not in context["workload"].allowed_signals:
                problems.append(
                    "promise #%d resolved with illegal status %r" % (promise_id, status)
                )
    stranded = sorted(created - set(resolved))
    if stranded:
        problems.append(
            "%d promise(s) never resolved (first: #%d) — a break must "
            "resolve, not strand" % (len(stranded), stranded[0])
        )
    return problems


def _crashed_guardians(tracer: Any) -> set:
    return {
        event.fields.get("guardian")
        for event in tracer.events_of("guardian.crashed", "guardian.destroyed")
    }


def _oracle_drain(context: Dict[str, Any]) -> List[str]:
    """Per (stream, incarnation): calls buffered == calls resolved.

    Valid because a break resolves every pending call of the old
    incarnation *before* the stream reincarnates, and surviving streams
    resolve via replies; only a sender-side guardian crash legitimately
    discards buffered-but-unresolved calls.
    """
    tracer = context["tracer"]
    buffered: Dict[Tuple[str, int], int] = {}
    resolved: Dict[Tuple[str, int], int] = {}
    for event in tracer.events_of(EV_CALL_BUFFERED):
        key = (event.fields.get("stream"), event.fields.get("incarnation", 0))
        buffered[key] = buffered.get(key, 0) + 1
    for event in tracer.events_of(EV_CALL_RESOLVED):
        key = (event.fields.get("stream"), event.fields.get("incarnation", 0))
        resolved[key] = resolved.get(key, 0) + 1
    crashed = _crashed_guardians(tracer)
    problems: List[str] = []
    for key in sorted(buffered, key=lambda k: (str(k[0]), k[1])):
        stream, incarnation = key
        # stream labels read "<guardian>/<agent>#<n>-><node>:<group>".
        sender_guardian = str(stream).split("/", 1)[0]
        if sender_guardian in crashed:
            continue
        missing = buffered[key] - resolved.get(key, 0)
        if missing > 0:
            problems.append(
                "stream %s incarnation %d: %d buffered call(s) never resolved"
                % (stream, incarnation, missing)
            )
        elif missing < 0:
            problems.append(
                "stream %s incarnation %d: %d more resolutions than buffered calls"
                % (stream, incarnation, -missing)
            )
    return problems


def _oracle_handler_leaks(context: Dict[str, Any]) -> List[str]:
    """No stopped dispatcher still owns a live process running its
    handlers."""
    system = context["system"]
    problems: List[str] = []
    for guardian in system.guardians.values():
        endpoint = guardian.endpoint
        for key, receiver in sorted(
            endpoint._receivers.items(), key=lambda item: repr(item[0])
        ):
            dispatcher = receiver.dispatcher
            if not dispatcher._stopped:
                continue
            leaked = [p for p in dispatcher._running if p.is_alive]
            if leaked:
                problems.append(
                    "stopped dispatcher for %r still owns %d live handler "
                    "process(es)" % (key, len(leaked))
                )
    return problems


_ORACLES = [
    ("liveness", _oracle_liveness),
    ("outcome", _oracle_outcomes),
    ("promise-resolution", _oracle_promises),
    ("reincarnation-drain", _oracle_drain),
    ("handler-leak", _oracle_handler_leaks),
]


def run_oracles(
    system: Any,
    workload: Any,
    outcomes: List[Tuple[str, str, Any]],
    driver_finished: bool,
    hard_cap: float,
) -> List[str]:
    """Run the post-run oracle battery; returns prefixed problem strings.

    Monitor violations from the online suite are *not* folded in here —
    the engine reports them separately so a verdict distinguishes "the
    transport broke an invariant" from "the end-to-end answer is wrong".
    """
    context = {
        "system": system,
        "workload": workload,
        "outcomes": outcomes,
        "driver_finished": driver_finished,
        "hard_cap": hard_cap,
        "tracer": system.tracer,
    }
    problems: List[str] = []
    for name, oracle in _ORACLES:
        problems.extend("%s: %s" % (name, problem) for problem in oracle(context))
    return problems
