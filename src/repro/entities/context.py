"""Activity contexts: what a running process sees of its guardian.

Every simulated activity — a top-level client process, a handler-call
process, a fork, a coenter arm — runs with an :class:`ActivityContext`
giving it its own :class:`~repro.entities.agents.Agent` (so concurrent
activities never share streams, §2), plus the operations Argus code uses:
binding ports, sleeping/computing, forking, and entering coenters.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.encoding.xrep import PortDescriptor
from repro.entities.agents import Agent
from repro.entities.ports import HandlerRef
from repro.sim.events import Event

__all__ = ["ActivityContext"]


class ActivityContext:
    """The per-activity view of the runtime."""

    def __init__(self, guardian: Any, agent: Agent) -> None:
        self.guardian = guardian
        self.agent = agent
        self.env = guardian.env
        self.system = guardian.system

    def __repr__(self) -> str:
        return "<ActivityContext %s>" % (self.agent,)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def sleep(self, duration: float) -> Event:
        """Yieldable pause; also used to model local computation time."""
        return self.env.timeout(duration)

    compute = sleep

    @property
    def now(self) -> float:
        return self.env._now

    # ------------------------------------------------------------------
    # Remote calls
    # ------------------------------------------------------------------
    def bind(self, descriptor: PortDescriptor) -> HandlerRef:
        """Bind a port descriptor to this activity's agent.

        Refs bound through the same context to ports of one group share a
        stream and are mutually sequenced.
        """
        return HandlerRef(self.guardian.endpoint, self.agent, descriptor)

    def lookup(
        self, guardian_name: str, handler_name: str, group: Optional[str] = None
    ) -> HandlerRef:
        """Convenience: look a handler up by name and bind it."""
        return self.bind(self.system.lookup(guardian_name, handler_name, group))

    # ------------------------------------------------------------------
    # Local concurrency (implemented in repro.concurrency; lazy imports
    # keep the entity layer free of upward dependencies)
    # ------------------------------------------------------------------
    def fork(self, procedure: Callable, *args: Any, ptype=None, label: str = ""):
        """``p: pt := fork foo(args)`` — run *procedure* in a new process
        and return a promise for its result (§3.2)."""
        from repro.concurrency.fork import fork

        return fork(self, procedure, *args, ptype=ptype, label=label)

    def coenter(self):
        """Build a ``coenter`` statement (§4.2); add arms, then yield
        ``.run()``."""
        from repro.concurrency.coenter import Coenter

        return Coenter(self)

    def spawn_context(self, label: str = "") -> "ActivityContext":
        """A fresh context (new agent) in the same guardian, for children."""
        return ActivityContext(self.guardian, self.guardian.new_agent(label))

    # ------------------------------------------------------------------
    # Critical sections (used by coenter wounding, §4.2)
    # ------------------------------------------------------------------
    def critical(self):
        """Context manager marking a critical section of the current
        process; forced termination is delayed while inside one."""
        from repro.concurrency.critical import critical_section

        return critical_section(self.env)
