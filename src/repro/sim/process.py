"""Simulated processes.

A process wraps a Python generator.  The generator *yields* events to block;
when a yielded event fires, the kernel resumes the generator with the event's
value (or throws the event's exception into it).  A process is itself an
event that fires when the generator finishes, so processes can wait on each
other — this is the substrate both for Argus processes/agents and for the
``fork``/``coenter`` constructs of the paper.

Interrupts model forced early termination (the coenter's termination of
sibling arms, section 4.2 of the paper).  ``Interrupt`` is thrown into the
generator at its current suspension point; Argus-level code layers
critical-section tracking and "wounding" on top (see
:mod:`repro.concurrency.coenter`).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event
from repro.sim.kernel import Environment, URGENT

__all__ = ["Process", "Interrupt", "ProcessKilled"]


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    ``cause`` carries an arbitrary explanation object.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class ProcessKilled(Exception):
    """Outcome of a process that was killed before completing."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class _Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: Environment, process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, 0.0, URGENT)


class Process(Event):
    """A running simulated process; also an event for its own completion."""

    # _critical_depth and _wound_cause belong to the critical-section layer
    # (repro.concurrency.critical) which annotates processes; they are
    # declared here so Process stays fully slotted.
    # span belongs to the observability layer (repro.obs): the causal
    # (trace_id, span_id, parent_span_id) context the process runs under,
    # or None.  Set by the dispatcher (on a stream driver, the span of the
    # call it is running; None when tracing is off), and by fork and coenter
    # when tracing is enabled; read by repro.obs.trace.mint_span.
    __slots__ = (
        "_generator",
        "pid",
        "_target",
        "_kill_pending",
        "_critical_depth",
        "_wound_cause",
        "span",
    )

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(
                "process requires a generator, got %r -- did you call a plain "
                "function instead of a generator function?" % (generator,)
            )
        super().__init__(env)
        self._generator = generator
        #: Deterministic serial number (stable across identical runs, and
        #: across environments within one interpreter — the counter is
        #: per-environment).
        self.pid = env.new_pid()
        #: The event this process is currently waiting on, or None.
        self._target: Optional[Event] = None
        #: Set when the process killed itself (or was killed while
        #: executing); honoured at its next suspension point.
        self._kill_pending: Optional[ProcessKilled] = None
        #: Causal span context this process runs under (tracing only).
        self.span = None
        tracer = env.tracer
        if tracer is not None:
            tracer.emit(
                "process.created",
                pid=self.pid,
                name=getattr(generator, "__name__", str(generator)),
            )
        _Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", self._generator)
        return "<Process(%s) at 0x%x>" % (name, id(self))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    # ------------------------------------------------------------------
    # Interruption
    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt %r: it has already finished" % self)
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        _Interruption(self, cause)

    def kill(self, cause: Any = None) -> None:
        """Forcibly terminate the process without running its handlers.

        The generator is closed; the process event fails with
        :class:`ProcessKilled` (pre-defused, since a kill is deliberate).
        Used by the runtime to model guardian crashes.
        """
        if self.triggered:
            return
        if self.env.active_process is self:
            # A process cannot close its own running generator; honour the
            # kill at the next suspension point instead.
            self._kill_pending = ProcessKilled(cause)
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        self._generator.close()
        self.defused = True
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("process.finished", pid=self.pid, status="killed")
        self.fail(ProcessKilled(cause))

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with *event*'s outcome."""
        self.env._active_process = self
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("process.resumed", pid=self.pid)
        try:
            while True:
                try:
                    if event is None:
                        target = self._generator.send(None)
                    elif event.ok:
                        target = self._generator.send(event.value)
                    else:
                        # The exception is being delivered into the process;
                        # it is now that process's responsibility.
                        event.defused = True
                        target = self._generator.throw(event.value)
                except StopIteration as stop:
                    self._target = None
                    if tracer is not None:
                        tracer.emit("process.finished", pid=self.pid, status="ok")
                    self.succeed(stop.value)
                    break
                except BaseException as exc:
                    self._target = None
                    if tracer is not None:
                        tracer.emit("process.finished", pid=self.pid, status="error")
                    self.fail(exc)
                    break

                if self._kill_pending is not None:
                    pending = self._kill_pending
                    self._kill_pending = None
                    self._generator.close()
                    self._target = None
                    self.defused = True
                    if tracer is not None:
                        tracer.emit("process.finished", pid=self.pid, status="killed")
                    self.fail(pending)
                    break

                if not isinstance(target, Event):
                    exc = TypeError(
                        "process %r yielded a non-event: %r" % (self, target)
                    )
                    event = Event(self.env)
                    event._ok = False
                    event._value = exc
                    continue

                if target.processed:
                    # Already fired: loop around and deliver immediately.
                    event = target
                    continue

                target.callbacks.append(self._resume)
                self._target = target
                break
        finally:
            self.env._active_process = None


class _Interruption(Event):
    """Carrier event that delivers an :class:`Interrupt` into a process."""

    __slots__ = ("_process",)

    def __init__(self, process: Process, cause: Any) -> None:
        super().__init__(process.env)
        self._process = process
        self._ok = False
        self._value = Interrupt(cause)
        self.defused = True
        self.callbacks.append(self._deliver)
        process.env.schedule(self, 0.0, URGENT)

    def _deliver(self, event: Event) -> None:
        process = self._process
        if process.triggered:
            return  # finished in the meantime; nothing to interrupt
        if process._target is not None and process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._target = None
        process._resume(self)
