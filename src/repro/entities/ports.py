"""Ports, port groups and client-side handler references.

A *port* identifies one handler of a guardian; it is strongly typed.  Ports
are grouped for sequencing: "only calls to ports in the same group are
sequenced", and a stream is one agent talking to one group (§2).

On the client side a :class:`HandlerRef` binds a transmitted-or-looked-up
:class:`~repro.encoding.xrep.PortDescriptor` to a local agent, giving the
Argus call forms: ``h.call(...)`` (RPC), ``h.stream(...)`` (stream call
expression), ``h.stream_statement(...)``, ``h.send(...)``, plus ``flush``
and ``synch`` on the underlying stream.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.promise import Promise
from repro.encoding.transmit import ArgsCodec, OutcomeCodec
from repro.encoding.xrep import PortDescriptor, type_fingerprint
from repro.sim.events import Event
from repro.types.signatures import HandlerType

__all__ = ["Port", "PortGroup", "HandlerRef"]


class Port:
    """One handler made callable from other guardians."""

    __slots__ = (
        "port_id",
        "handler_type",
        "impl",
        "group",
        "args_codec",
        "outcome_codec",
    )

    def __init__(
        self,
        port_id: str,
        handler_type: HandlerType,
        impl: Callable,
        group: "PortGroup",
    ) -> None:
        self.port_id = port_id
        self.handler_type = handler_type
        self.impl = impl
        self.group = group
        #: The handler type's shared codecs, fetched once for every call.
        self.args_codec = ArgsCodec.for_type(handler_type)
        self.outcome_codec = OutcomeCodec.for_type(handler_type)

    def descriptor(self) -> PortDescriptor:
        """The transmissible reference to this port."""
        return PortDescriptor(
            node=self.group.node_name,
            group_address=self.group.endpoint_address,
            group_id=self.group.group_id,
            port_id=self.port_id,
            fingerprint=type_fingerprint(self.handler_type),
            handler_type=self.handler_type,
        )

    def __repr__(self) -> str:
        return "<Port %s/%s>" % (self.group.group_id, self.port_id)


class PortGroup:
    """A set of ports sequenced together; the receiving end of streams.

    "Ports are grouped together for sequencing purposes ...  We require
    that ports in the same group all belong to the same entity." (§2)
    """

    def __init__(
        self,
        group_id: str,
        node_name: str,
        endpoint_address: str,
        parallel: bool = False,
    ) -> None:
        self.group_id = group_id
        self.node_name = node_name
        self.endpoint_address = endpoint_address
        self.ports: Dict[str, Port] = {}
        #: The §2.1 override: "We may provide some explicit overrides to
        #: allow more sophisticated programs that process calls on the
        #: same stream in parallel."  Replies still travel in call order.
        self.parallel = parallel

    def add_port(self, port_id: str, handler_type: HandlerType, impl: Callable) -> Port:
        """Create a port in this group for handler *impl*."""
        if port_id in self.ports:
            raise ValueError(
                "port %r already exists in group %r" % (port_id, self.group_id)
            )
        port = Port(port_id, handler_type, impl, self)
        self.ports[port_id] = port
        return port

    def lookup(self, port_id: str) -> Optional[Port]:
        """The named port, or None."""
        return self.ports.get(port_id)

    def __repr__(self) -> str:
        return "<PortGroup %s: %s>" % (self.group_id, sorted(self.ports))


class HandlerRef:
    """Client-side handle on a remote handler, bound to an agent.

    All refs created from the same agent to ports of the same group share
    one stream and are therefore mutually sequenced.
    """

    def __init__(self, endpoint: Any, agent: Any, descriptor: PortDescriptor) -> None:
        if descriptor.handler_type is None:
            raise ValueError(
                "descriptor %r has no handler type; bind() requires one"
                % (descriptor,)
            )
        self._endpoint = endpoint
        self._agent = agent
        self.descriptor = descriptor
        self.handler_type = descriptor.handler_type
        # Agent and descriptor never change, so neither does the stream
        # key.  The sender is looked up on every call, not kept: a crash
        # or destroy forgets it and the next call opens a fresh one.
        self._key = endpoint.stream_key(agent, descriptor)

    def _sender(self):
        return self._endpoint.open_sender(self._key)

    # -- the four call forms ------------------------------------------------
    def call(self, *args: Any) -> Event:
        """Ordinary RPC: ``m = yield h.call(x)``; waits for the reply."""
        return self._sender().rpc(self.descriptor.port_id, self.handler_type, args)

    def stream(self, *args: Any) -> Promise:
        """Stream call, expression form: ``p = h.stream(x)`` (paper:
        ``x: pt := stream h(3)``)."""
        return self._sender().stream_call(
            self.descriptor.port_id, self.handler_type, args, want_promise=True
        )

    def stream_statement(self, *args: Any) -> None:
        """Stream call, statement form: the reply is decoded and discarded."""
        self._sender().stream_call(
            self.descriptor.port_id, self.handler_type, args, want_promise=False
        )

    def send(self, *args: Any) -> None:
        """Explicit send: a reply arrives only on abnormal termination."""
        self._sender().send(self.descriptor.port_id, self.handler_type, args)

    def batch(self, *args: Any) -> None:
        """Ship an epoch batch frame (see :mod:`repro.graph`): send
        semantics on the wire, flushed immediately at the epoch boundary."""
        self._sender().batch(self.descriptor.port_id, self.handler_type, args)

    # -- stream-level operations --------------------------------------------
    def flush(self) -> None:
        """``flush h`` — push out buffered calls, pull back replies."""
        self._sender().flush()

    def synch(self) -> Event:
        """``synch h`` — yieldable; fails with ``exception_reply`` if any
        earlier stream call terminated abnormally."""
        return self._sender().synch()

    def restart(self) -> None:
        """Restart the underlying stream (break + reincarnation)."""
        self._sender().restart()

    @property
    def stream_sender(self):
        """The underlying sender (for tests and benchmarks)."""
        return self._sender()

    def __repr__(self) -> str:
        return "<HandlerRef %s via %s>" % (self.descriptor, self._agent)
