"""Guardians and their transport endpoints.

"Argus provides active entities called guardians, each of which resides
entirely at a single node of a network.  Each guardian provides operations
called handlers that can be called by other guardians." (§2.1)

A guardian owns:

* one :class:`TransportEndpoint` registered at its node, through which all
  of its stream traffic (both directions) flows;
* one or more port groups of handlers;
* any number of running processes, each with its own agent.

Crashing the guardian's node kills its processes and erases all stream
state (that loss is what the receiver detects as an asynchronous break);
destroying a guardian makes future calls fail permanently ("failure —
e.g., the handler's guardian does not exist").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.exceptions import Failure
from repro.encoding.xrep import PortDescriptor
from repro.entities.agents import Agent
from repro.entities.context import ActivityContext
from repro.entities.dispatch import GroupDispatcher
from repro.entities.ports import HandlerRef, Port, PortGroup
from repro.net.message import Message
from repro.net.network import Node, NodeDown
from repro.sim.process import Process
from repro.streams.receiver import StreamReceiver
from repro.streams.sender import StreamSender
from repro.streams.wire import BreakNotice, CallPacket, ReplyPacket, StreamKey

__all__ = ["Guardian", "TransportEndpoint"]

#: Fewest tracked processes at which a guardian sweeps out finished ones.
_MIN_SWEEP = 64


class TransportEndpoint:
    """A guardian's attachment to the network: routes packets to stream
    senders and receivers."""

    def __init__(self, guardian: "Guardian", node: Node, address: str) -> None:
        self.guardian = guardian
        self.node = node
        self.address = address
        self.env = guardian.env
        self.network = guardian.system.network
        self._senders: Dict[StreamKey, StreamSender] = {}
        self._receivers: Dict[StreamKey, StreamReceiver] = {}
        node.register(address, self._on_message)

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def sender_for(self, agent: Agent, descriptor: PortDescriptor) -> StreamSender:
        """The stream sender for (this agent → that port group)."""
        key = StreamKey(
            src_node=self.node.name,
            src_address=self.address,
            agent_id=agent.agent_id,
            dst_node=descriptor.node,
            dst_address=descriptor.group_address,
            group_id=descriptor.group_id,
        )
        sender = self._senders.get(key)
        if sender is None:
            sender = StreamSender(
                self.env, self.network, key, self.guardian.system.stream_config
            )
            self._senders[key] = sender
        return sender

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        packet = message.payload
        if isinstance(packet, CallPacket):
            self._on_call_packet(packet)
        elif isinstance(packet, ReplyPacket):
            sender = self._senders.get(packet.key)
            if sender is not None:
                sender.on_reply(packet)
        # Unknown payloads are dropped silently.

    def _on_call_packet(self, packet: CallPacket) -> None:
        guardian = self.guardian
        if not guardian.alive:
            self._refuse(packet, "guardian %s does not exist" % guardian.name)
            return
        group = guardian.groups.get(packet.key.group_id)
        if group is None:
            self._refuse(packet, "no such port group: %s" % packet.key.group_id)
            return
        receiver = self._receivers.get(packet.key)
        if receiver is not None and packet.incarnation > receiver.incarnation:
            # The sender reincarnated: everything the old incarnation was
            # still running is an orphan — "the Argus system guarantees
            # that it will find these computations and destroy them later"
            # (§4.2).
            receiver.dispatcher.stop(
                "superseded by incarnation %d" % packet.incarnation
            )
        if receiver is not None and packet.incarnation < receiver.incarnation:
            return  # stale incarnation
        fresh = receiver is None or packet.incarnation > receiver.incarnation
        if self.node.incarnation > 0 and (fresh or receiver.virgin):
            # On a node that has crashed, entries may only start flowing
            # from a genuine stream start: a first transmission whose
            # entries begin at seq 1.  A retransmission or a mid-sequence
            # first transmission means the sender believes the stream is
            # already open — entries below the packet's window may have
            # executed before the crash, so accepting would let a later
            # go-back-N retransmission re-execute them.  Break the stream
            # asynchronously instead (§2: the effect on already-processed
            # calls of an asynchronous break is nondeterministic).  The
            # rule keeps applying while the receiver is *virgin* (opened
            # by an entry-less announce or bare ack, nothing delivered
            # yet): such a receiver must not launder pre-crash entries
            # through later packets either.  Sound because senders always
            # start an incarnation
            # at seq 1 and the network drops datagrams stamped for a
            # previous node incarnation, so a surviving attempt-0 packet
            # starting at seq 1 cannot be a replay from before the crash.
            if packet.attempt > 0 or (
                packet.entries
                and min(entry.seq for entry in packet.entries) != 1
            ):
                self._refuse(
                    packet, "receiver state lost (crash)", permanent=False
                )
                return
        if fresh:
            receiver = StreamReceiver(
                self.env,
                self.network,
                packet.key,
                packet.incarnation,
                GroupDispatcher(guardian, group),
                guardian.system.stream_config,
            )
            self._receivers[packet.key] = receiver
        if packet.entries:
            receiver.virgin = False
        receiver.on_call_packet(packet)

    def _refuse(self, packet: CallPacket, reason: str, permanent: bool = True) -> None:
        """Reply with a break notice instead of accepting the stream."""
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.refused",
                guardian=self.guardian.name,
                reason=reason,
                permanent=permanent,
            )
        reply = ReplyPacket(
            packet.key,
            packet.incarnation,
            [],
            ack_call_seq=0,
            completed_seq=0,
            broken=BreakNotice(
                synchronous=False, after_seq=0, reason=reason, permanent=permanent
            ),
        )
        message = Message(
            packet.key.dst_node,
            packet.key.src_node,
            packet.key.src_address,
            reply,
            reply.size,
        )
        try:
            self.network.send(message, want_done=False)
        except NodeDown:
            pass

    def abandon_agent(self, agent: Agent) -> None:
        """Restart every stream of *agent* that still has work in flight.

        Called when the agent's activity is terminated early (a coenter
        arm): the restart announcement reaching each receiver destroys the
        orphaned executions there.
        """
        for key, sender in list(self._senders.items()):
            if key.agent_id != agent.agent_id:
                continue
            if sender.broken:
                continue
            if sender._has_unresolved() or sender._buffer or sender._unacked:
                sender.restart()

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def forget_streams(self) -> None:
        """Drop all stream state (volatile across crashes)."""
        self._senders.clear()
        self._receivers.clear()


class Guardian:
    """An Argus guardian: handlers, port groups, processes, one node."""

    def __init__(self, system: Any, name: str, node: Node) -> None:
        self.system = system
        self.env = system.env
        self.name = name
        self.node = node
        self.alive = True
        self.address = "g:%s" % name
        self.endpoint = TransportEndpoint(self, node, self.address)
        self.groups: Dict[str, PortGroup] = {}
        self.create_group("main")
        #: Convenience shared mutable state for handler implementations
        #: ("Argus procedures can share objects").
        self.state: Dict[str, Any] = {}
        self._processes: List[Process] = []
        #: List length that triggers the next sweep of finished processes.
        self._sweep_at = _MIN_SWEEP
        node.on_crash(self._on_node_crash)

    def __repr__(self) -> str:
        return "<Guardian %s@%s>" % (self.name, self.node.name)

    # ------------------------------------------------------------------
    # Handler/port management
    # ------------------------------------------------------------------
    def create_group(self, group_id: str, parallel: bool = False) -> PortGroup:
        """Create a new port group (groups may be made dynamically, §2).

        ``parallel=True`` opts the group into the §2.1 override: calls on
        one stream are *executed* concurrently, while the transport still
        delivers requests and releases replies in call order.  Only
        programs whose handlers commute should use it.
        """
        if group_id in self.groups:
            raise ValueError("group %r already exists on %s" % (group_id, self))
        group = PortGroup(group_id, self.node.name, self.address, parallel=parallel)
        self.groups[group_id] = group
        return group

    def create_handler(
        self,
        name: str,
        handler_type: Any,
        impl: Callable,
        group: str = "main",
    ) -> Port:
        """Define a handler: a port plus the procedure run per call.

        *impl* is a generator function ``impl(ctx, *args)`` run once per
        call with a fresh context (fresh agent); it may ``yield`` to block
        and ``return`` its result, or raise
        :class:`~repro.core.exceptions.Signal`.  Calls on one stream of a
        sequential group run on that stream's driver process, one after
        another; calls of a ``parallel`` group each get a process of their
        own (:meth:`spawn_handler`).
        """
        if group not in self.groups:
            self.create_group(group)
        return self.groups[group].add_port(name, handler_type, impl)

    def descriptor(self, handler_name: str, group: Optional[str] = None) -> PortDescriptor:
        """Find a handler's port descriptor (searching groups if unnamed)."""
        if group is not None:
            port = self.groups[group].lookup(handler_name)
            if port is None:
                raise KeyError(
                    "no handler %r in group %r of %s" % (handler_name, group, self)
                )
            return port.descriptor()
        for port_group in self.groups.values():
            port = port_group.lookup(handler_name)
            if port is not None:
                return port.descriptor()
        raise KeyError("no handler %r on %s" % (handler_name, self))

    # ------------------------------------------------------------------
    # Processes and agents
    # ------------------------------------------------------------------
    def new_agent(self, label: str = "") -> Agent:
        """Mint a fresh agent (a new sending end for streams)."""
        return Agent(self.name, label, self.env.new_serial("agent"))

    def new_context(self, label: str = "") -> ActivityContext:
        """A fresh activity context bound to a fresh agent."""
        return ActivityContext(self, self.new_agent(label))

    def spawn(self, procedure: Callable, *args: Any, label: str = "") -> Process:
        """Run ``procedure(ctx, *args)`` as a new process of this guardian."""
        if not self.alive:
            raise Failure("guardian %s does not exist" % self.name)
        ctx = self.new_context(label or getattr(procedure, "__name__", "proc"))
        process = self.env.process(procedure(ctx, *args))
        self._track(process)
        return process

    def spawn_handler(self, port: Port, args: tuple, span: Any = None) -> Process:
        """Run one handler call in a process of its own (fresh agent).

        Used for ``parallel`` groups, whose calls on one stream overlap;
        sequential groups run their handlers on the stream's driver
        instead.  *span* is the call's causal trace context (tracing only):
        attached to the process so that remote calls and forks the handler
        makes nest under the call that started it.
        """
        ctx = self.new_context(port.port_id)
        process = self.env.process(port.impl(ctx, *args))
        if span is not None:
            process.span = span
        self._track(process)
        return process

    def _track(self, process: Process) -> None:
        # Finished processes are swept out only when the list has doubled
        # since the last sweep, so tracking costs O(1) amortised even with
        # many processes alive at once.
        self._processes.append(process)
        if len(self._processes) > self._sweep_at:
            self._processes = [p for p in self._processes if p.is_alive]
            self._sweep_at = max(_MIN_SWEEP, 2 * len(self._processes))

    def bind(self, descriptor: PortDescriptor, agent: Optional[Agent] = None) -> HandlerRef:
        """Bind a descriptor outside any activity (mostly for tests)."""
        return HandlerRef(self.endpoint, agent or self.new_agent(), descriptor)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_node_crash(self, node: Node) -> None:
        killed = 0
        for process in self._processes:
            if process.is_alive:
                process.kill("node %s crashed" % node.name)
                killed += 1
        self._processes = []
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "guardian.crashed",
                guardian=self.name,
                node=node.name,
                processes_killed=killed,
            )
        # All volatile stream state is lost; peers will detect this as an
        # asynchronous break.
        self.endpoint.forget_streams()

    def destroy(self) -> None:
        """Remove the guardian permanently; calls will fail with
        ``failure("guardian ... does not exist")``."""
        self.alive = False
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("guardian.destroyed", guardian=self.name)
        for process in self._processes:
            if process.is_alive:
                process.kill("guardian %s destroyed" % self.name)
        self._processes = []
        self.groups = {}
        self.endpoint.forget_streams()
