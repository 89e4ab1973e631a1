"""Call outcomes under the termination model.

An :class:`Outcome` captures how a call terminated — normally with a tuple
of results, or exceptionally with an :class:`~repro.core.exceptions.ArgusError`
— as a first-class immutable value.  Outcomes are what travel in reply
messages and what a ready promise stores; ``claim`` simply applies the
outcome (return or raise).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.exceptions import ArgusError, Failure, Signal, Unavailable

__all__ = ["Outcome"]


class Outcome:
    """Immutable result of a terminated call.

    Exactly one of the two slots is not None: ``_results`` (a tuple) for
    a normal termination, ``_exception`` for an exceptional one.  The
    runtime's per-call paths (promises, the outcome codec, the stream
    ends) read the slots directly instead of through the checking
    properties below.
    """

    __slots__ = ("_results", "_exception")

    def __init__(
        self,
        results: Optional[Tuple[Any, ...]] = None,
        exception: Optional[ArgusError] = None,
    ) -> None:
        if (results is None) == (exception is None):
            raise ValueError("an outcome is either results or an exception")
        if exception is not None and not isinstance(exception, ArgusError):
            raise TypeError(
                "outcome exception must be an ArgusError, got %r" % (exception,)
            )
        self._results = tuple(results) if results is not None else None
        self._exception = exception

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def normal(cls, *results: Any) -> "Outcome":
        """A normal termination carrying zero or more results."""
        # *results is already a fresh tuple and nothing here can be
        # invalid, so skip __init__'s checks and copy.
        outcome = object.__new__(cls)
        outcome._results = results
        outcome._exception = None
        return outcome

    @classmethod
    def exceptional(cls, exception: ArgusError) -> "Outcome":
        """An exceptional termination."""
        return cls(exception=exception)

    @classmethod
    def unavailable(cls, reason: str = "cannot communicate") -> "Outcome":
        return cls(exception=Unavailable(reason))

    @classmethod
    def failure(cls, reason: str = "call failed") -> "Outcome":
        return cls(exception=Failure(reason))

    @classmethod
    def signal(cls, name: str, *sig_args: Any) -> "Outcome":
        return cls(exception=Signal(name, *sig_args))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_normal(self) -> bool:
        return self._exception is None

    @property
    def is_exceptional(self) -> bool:
        return self._exception is not None

    @property
    def results(self) -> Tuple[Any, ...]:
        if self._results is None:
            raise ValueError("exceptional outcome has no results: %r" % (self,))
        return self._results

    @property
    def exception(self) -> ArgusError:
        if self._exception is None:
            raise ValueError("normal outcome has no exception: %r" % (self,))
        return self._exception

    @property
    def condition(self) -> str:
        """The termination condition name ('normal' or the exception name)."""
        if self._exception is None:
            return "normal"
        return self._exception.condition

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self) -> Any:
        """Return the results (unwrapped if single) or raise the exception.

        This is the semantics of ``claim``: "it returns normally if the call
        terminated normally, and otherwise it signals the appropriate
        exception."
        """
        if self._exception is not None:
            raise self._exception
        if len(self._results) == 0:
            return None
        if len(self._results) == 1:
            return self._results[0]
        return self._results

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Outcome):
            return NotImplemented
        if self.is_normal != other.is_normal:
            return False
        if self.is_normal:
            return self._results == other._results
        return (
            type(self._exception) is type(other._exception)
            and self._exception.condition == other._exception.condition
            and self._exception.args == other._exception.args
        )

    def __hash__(self) -> int:
        if self.is_normal:
            return hash(("normal", self._results))
        return hash((self._exception.condition, self._exception.args))

    def __repr__(self) -> str:
        if self.is_normal:
            return "Outcome.normal%r" % (self._results,)
        return "Outcome.exceptional(%s)" % (self._exception,)
