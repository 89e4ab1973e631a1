"""Per-stream execution of handler calls.

"When a handler call arrives at a guardian, the Argus system will delay its
execution until all earlier calls on its stream have completed. ...  Note,
however, that calls on different streams can be processed in parallel."
(§2.1)

Each stream receiver gets its own :class:`GroupDispatcher`: a FIFO of
delivered requests drained by a driver process that runs one handler call
at a time.  The driver runs each call's handler generator itself, with a
fresh :class:`~repro.entities.context.ActivityContext` (fresh agent) per
call: no simulated process is created per call.  While a handler runs, the
driver carries the call's causal span, and it is registered with the
guardian, so a node crash kills it — and the handler inside it — just as it
would kill a process of the handler's own.  Different dispatchers
(different streams) run concurrently.  Groups created with
``parallel=True`` (the §2.1 override) still start one process per call.

Everything observable — port lookup, argument decoding, execution, outcome
posting — happens inside the sequential driver, so outcomes are produced
strictly in call order.  That ordering is what makes a decode failure a
*synchronous* break: every call before the failing one has already
completed and is unaffected (§2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Collection, Deque, Optional, Tuple

from repro.core.exceptions import Failure, Signal, Unavailable
from repro.core.outcome import Outcome
from repro.encoding.errors import DecodeError
from repro.sim.process import Interrupt, Process, ProcessKilled
from repro.streams.receiver import CallDispatcher, StreamReceiver
from repro.types.signatures import HandlerType

__all__ = ["GroupDispatcher", "normalize_result"]


def normalize_result(handler_type: HandlerType, result: Any) -> Outcome:
    """Turn a handler's Python return value into a normal outcome.

    Zero declared results → the handler must return None; one → any single
    value; several → a tuple of exactly that length.
    """
    count = len(handler_type.returns)
    if count == 0:
        if result is not None:
            return Outcome.failure(
                "handler returned a value but declares no results"
            )
        return Outcome.normal()
    if count == 1:
        return Outcome.normal(result)
    if not isinstance(result, tuple) or len(result) != count:
        return Outcome.failure(
            "handler returned %r but declares %d results" % (result, count)
        )
    return Outcome.normal(*result)


class GroupDispatcher(CallDispatcher):
    """Sequential executor for the calls of one stream."""

    def __init__(self, guardian: Any, group: Any) -> None:
        self.guardian = guardian
        self.group = group
        self.env = guardian.env
        self._queue: Deque[Tuple[StreamReceiver, int, str, bytes, str, Any]] = deque()
        self._driver = None
        self._stopped = False
        #: Processes executing this stream's handlers, for orphan
        #: destruction: a 1-tuple holding the driver of a sequential group
        #: (a tuple keeps idle dispatchers small), or, for a parallel
        #: group, one process per call in a dict used as an
        #: insertion-ordered set, so kills happen in a deterministic order.
        self._running: Collection[Process] = {} if group.parallel else ()

    # ------------------------------------------------------------------
    # CallDispatcher interface
    # ------------------------------------------------------------------
    def dispatch(
        self,
        receiver: StreamReceiver,
        seq: int,
        port_id: str,
        args_bytes: bytes,
        kind: str,
        span: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        """Queue one delivered request; starts the driver if idle."""
        if self._stopped or not self.guardian.alive:
            return
        self._queue.append((receiver, seq, port_id, args_bytes, kind, span))
        if self._driver is None or self._driver.triggered:
            if self.group.parallel:
                self._driver = self.env.process(self._run_parallel())
            else:
                # The driver runs the handlers, so it is what a crash or
                # an orphan destruction must kill.  The finished driver it
                # replaces is dropped, keeping one entry per stream.
                self._driver = driver = self.env.process(self._run())
                self._running = (driver,)
                self.guardian._track(driver)

    def stop(self, reason: str) -> None:
        """The stream broke or was superseded: drop queued calls (they are
        'discarded automatically, so user code never needs to deal with
        them') and destroy executions already in progress — the orphan
        destruction of §4.2: "the Argus system guarantees that it will
        find these computations and destroy them later"."""
        self._stopped = True
        self._queue.clear()
        # _running keeps the killed processes (a parallel group's drop out
        # as their kills complete), so the chaos handler-leak oracle can
        # check that every one of them really died.
        for process in tuple(self._running):
            if process.is_alive:
                process.kill("orphaned call destroyed: %s" % reason)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _run(self):
        driver = self.env.active_process
        guardian = self.guardian
        while self._queue and not self._stopped and guardian.alive:
            receiver, seq, port_id, args_bytes, kind, span = self._queue.popleft()

            port = self.group.lookup(port_id)
            if port is None:
                # The call is an error, but the stream survives.
                receiver.fail_call(seq, "handler does not exist: %s" % port_id, kind)
                continue
            try:
                args = port.args_codec.decode(args_bytes)
            except DecodeError as exc:
                # Fails this call and breaks the stream synchronously;
                # everything before it has already completed.
                receiver.decode_failure(seq, kind, exc)
                continue

            overhead = guardian.system.process_spawn_overhead
            if overhead > 0:
                yield self.env.timeout(overhead)
            handler = port.impl(guardian.new_context(port.port_id), *args)
            if not hasattr(handler, "throw"):
                raise TypeError(
                    "handler %s must be a generator function, got %r"
                    % (port.port_id, handler)
                )
            # Nested calls and forks made by the handler parent under the
            # call's span (None when tracing is off).
            driver.span = span
            tracer = self.env.tracer
            if tracer is not None:
                self._emit_executing(tracer, receiver, seq, port_id, span, driver)
            try:
                result = yield from handler
            except Signal as sig:
                outcome = Outcome.exceptional(sig)
            except (Unavailable, Failure) as exc:
                outcome = Outcome.exceptional(type(exc)(*exc.args))
            except (ProcessKilled, Interrupt):
                return  # the handler was terminated; no reply is sent
            except Exception as exc:  # a bug in handler code
                outcome = Outcome.failure("handler crashed: %r" % (exc,))
            else:
                outcome = normalize_result(port.handler_type, result)
            tracer = self.env.tracer
            if tracer is not None:
                self._emit_completed(tracer, receiver, seq, span, outcome)
            receiver.post_outcome(seq, outcome, kind, port.outcome_codec)

    # The emitters are called only with a tracer installed: the call sites
    # check, so an untraced call pays no call to find out.
    @staticmethod
    def _emit_executing(tracer, receiver, seq, port_id, span, process) -> None:
        tracer.emit(
            "stream.call_executing",
            stream=receiver.trace_label,
            incarnation=receiver.incarnation,
            seq=seq,
            port=port_id,
            pid=process.pid,
            trace_id=span[0] if span is not None else None,
            span_id=span[1] if span is not None else None,
        )

    @staticmethod
    def _emit_completed(tracer, receiver, seq, span, outcome) -> None:
        tracer.emit(
            "stream.call_completed",
            stream=receiver.trace_label,
            incarnation=receiver.incarnation,
            seq=seq,
            status=outcome.condition,
            trace_id=span[0] if span is not None else None,
            span_id=span[1] if span is not None else None,
        )

    # ------------------------------------------------------------------
    # Parallel driver (the §2.1 override)
    # ------------------------------------------------------------------
    def _run_parallel(self):
        """Start every queued call immediately, in its own process.

        The stream receiver re-serializes outcomes, so replies still
        travel in call order even though execution overlaps.
        """
        while self._queue and not self._stopped and self.guardian.alive:
            receiver, seq, port_id, args_bytes, kind, span = self._queue.popleft()

            port = self.group.lookup(port_id)
            if port is None:
                receiver.fail_call(seq, "handler does not exist: %s" % port_id, kind)
                continue
            try:
                args = port.args_codec.decode(args_bytes)
            except DecodeError as exc:
                receiver.decode_failure(seq, kind, exc)
                continue

            overhead = self.guardian.system.process_spawn_overhead
            if overhead > 0:
                yield self.env.timeout(overhead)
            process = self.guardian.spawn_handler(port, args, span=span)
            tracer = self.env.tracer
            if tracer is not None:
                self._emit_executing(tracer, receiver, seq, port_id, span, process)
            self._running[process] = None
            self._hook_completion(process, receiver, seq, kind, port, span)

    def _hook_completion(
        self, process, receiver, seq: int, kind: str, port, span
    ) -> None:
        def complete(event) -> None:
            self._running.pop(process, None)
            if event.ok:
                outcome = normalize_result(port.handler_type, event.value)
            else:
                exc = event.value
                event.defused = True
                if isinstance(exc, Signal):
                    outcome = Outcome.exceptional(exc)
                elif isinstance(exc, (Unavailable, Failure)):
                    outcome = Outcome.exceptional(type(exc)(*exc.args))
                elif isinstance(exc, (ProcessKilled, Interrupt)):
                    return  # guardian crashed; no reply will be sent
                else:
                    outcome = Outcome.failure("handler crashed: %r" % (exc,))
            tracer = self.env.tracer
            if tracer is not None:
                self._emit_completed(tracer, receiver, seq, span, outcome)
            receiver.post_outcome(seq, outcome, kind, port.outcome_codec)

        if process.triggered:
            complete(process)
        else:
            process.callbacks.append(complete)
