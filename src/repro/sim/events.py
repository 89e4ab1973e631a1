"""Events for the simulation kernel.

An :class:`Event` is the unit of blocking: simulated processes yield events
and are resumed when the event *fires*.  Events pass through three states:

* **untriggered** — created, not yet scheduled;
* **triggered** — given an outcome (a value or an exception) and placed on
  the environment's calendar;
* **processed** — fired; its callbacks have run and waiting processes have
  been resumed.

Once triggered an event's outcome never changes, mirroring the monotonicity
that the paper requires of promises ("once a promise is ready it remains
ready from then on and its value never changes again").
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from repro.sim.kernel import _EV, Environment, NORMAL

__all__ = ["Event", "Timeout", "Condition", "AllOf", "AnyOf", "ConditionValue"]

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: List of callables invoked (with the event) when the event fires,
        #: or ``None`` once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set ``True`` by a handler that has dealt with a failed event so
        #: the kernel does not re-raise the exception at the top level.
        self.defused = False

    def __repr__(self) -> str:
        state = (
            "untriggered"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return "<%s %s at 0x%x>" % (type(self).__name__, state, id(self))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the outcome is a success value (only valid if triggered)."""
        if self._ok is None:
            raise RuntimeError("event %r has not yet been triggered" % self)
        return self._ok

    @property
    def value(self) -> Any:
        """The outcome: the success value or the exception object."""
        if self._value is _PENDING:
            raise RuntimeError("event %r has not yet been triggered" % self)
        return self._value

    def value_or_raise(self) -> Any:
        """Return the success value, or raise the failure exception."""
        if self._value is _PENDING:
            raise RuntimeError("event %r has not yet been triggered" % self)
        if not self._ok:
            self.defused = True
            raise self._value
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event with a success *value*."""
        if self.triggered:
            raise RuntimeError("event %r has already been triggered" % self)
        self._ok = True
        self._value = value
        self.env.schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure *exception*."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception, got %r" % (exception,))
        if self.triggered:
            raise RuntimeError("event %r has already been triggered" % self)
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, priority)
        return self

    def trigger(self, outcome: "Event") -> None:
        """Copy another event's outcome onto this one (callback-compatible)."""
        if outcome._ok:
            self.succeed(outcome._value)
        else:
            self.fail(outcome._value)

    # ------------------------------------------------------------------
    # Firing (kernel internal)
    # ------------------------------------------------------------------
    def _fire(self, env: Environment) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise RuntimeError("event %r fired twice" % self)
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            raise self._value


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError("negative timeout delay: %r" % (delay,))
        # Event.__init__ and env.schedule(self, delay) inlined: every sleep
        # and compute builds one of these.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._delay = delay
        when = env._now + delay
        buckets = env._buckets
        b = buckets.get(when)
        if b is None:
            bpool = env._bucket_pool
            if bpool:
                b = bpool.pop()
                lane = b[0]
                lane.append(_EV)
                lane.append(self)
                buckets[when] = b
            else:
                buckets[when] = [[_EV, self], 0, None, 0]
            heappush(env._times, when)
        else:
            lane = b[0]
            lane.append(_EV)
            lane.append(self)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return "<Timeout delay=%r at 0x%x>" % (self._delay, id(self))


class ConditionValue:
    """Ordered mapping from events to outcomes, produced by conditions."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def values(self) -> List[Any]:
        """Outcome values of the fired events, in condition order."""
        return [event.value for event in self.events]

    def __repr__(self) -> str:
        return "<ConditionValue %r>" % (self.values(),)


class Condition(Event):
    """Fires when *evaluate* says enough of the sub-events have fired.

    A failed sub-event fails the whole condition immediately.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: Environment,
        evaluate: Callable[[List[Event], int], bool],
        events: List[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all condition events must share one environment")

        if not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_value(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            # Use `processed`, not `triggered`: a Timeout is triggered from
            # birth (its outcome is fixed) but has not *happened* until it
            # fires.
            if event.processed and event.ok:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_value())

    @property
    def events(self) -> List[Event]:
        return list(self._events)


class AllOf(Condition):
    """Condition satisfied once every sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: Environment, events: List[Event]) -> None:
        super().__init__(env, lambda evts, count: count == len(evts), events)


class AnyOf(Condition):
    """Condition satisfied once any sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: Environment, events: List[Event]) -> None:
        super().__init__(env, lambda evts, count: count >= 1, events)


# Let the kernel's run loop inline the exact-class fire path for the two
# hot classes (subclasses still dispatch through their own _fire), and its
# factory helpers build events, without an import cycle.
from repro.sim import kernel as _kernel  # noqa: E402

_kernel._EVENT_CLASS = Event
_kernel._TIMEOUT_CLASS = Timeout
_kernel._ALL_OF_CLASS = AllOf
_kernel._ANY_OF_CLASS = AnyOf
