"""Execution engine for promise graphs over sharded guardians.

The runtime installs one ``graph`` port group on every shard guardian:

``exec``      takes a batch frame (an epoch of routine deliveries), runs
              every unit where its data lives, and cascades the leftover
              subtrees — one frame per downstream shard, shipped as a
              :data:`~repro.streams.wire.KIND_BATCH` entry so a normal
              epoch needs no reply beyond the completion watermark;
``exec_one``  the naive baseline: one delivery in, fire-or-accumulate,
              outputs back — a full RPC round trip per DAG edge.

The *origin* guardian (where :meth:`GraphRuntime.submit` runs) gets a
``graph_result`` handler that resolves the submission's promises from
incoming result frames.

Execution placement: each delivery routes to the shard its scheduling
key hashes to.  A routine with a ``node_func`` recomputes the key from
its actual inputs — if that lands elsewhere, the delivery *migrates*
(the subtree re-ships instead of executing here).  Collectors route by
their static key only, so all their independent inputs meet in one
guardian's state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.exceptions import Unavailable
from repro.core.promise import Promise
from repro.graph.builder import GraphBuilder, GraphError
from repro.graph.codec import (
    FRAME_BATCHING,
    TreeNode,
    decode_batch_frame,
    decode_result_frame,
    decode_unit_frame,
    encode_batch_frame,
    encode_result_frame,
    encode_unit_frame,
)
from repro.graph.router import ShardRouter
from repro.types.signatures import STRING, HandlerType

__all__ = [
    "EXEC_HANDLER",
    "EXEC_ONE_HANDLER",
    "GRAPH_GROUP",
    "RESULT_HANDLER",
    "GraphRuntime",
]

GRAPH_GROUP = "graph"
EXEC_HANDLER = "exec"
EXEC_ONE_HANDLER = "exec_one"
RESULT_HANDLER = "graph_result"

#: Frames travel as strings through the ordinary argument codecs; the
#: latin-1 bijection maps frame bytes onto code points losslessly.
_EXEC_TYPE = HandlerType(args=[STRING])
_EXEC_ONE_TYPE = HandlerType(args=[STRING], returns=[STRING])
_RESULT_TYPE = HandlerType(args=[STRING])


def _to_wire(frame: bytes) -> str:
    return frame.decode("latin-1")


def _from_wire(text: str) -> bytes:
    return text.encode("latin-1")


class _ShardEngine:
    """Per-incoming-frame execution state on one shard.

    Outgoing units and results buffer here while the frame's deliveries
    run, then flush as one frame per destination (the epoch batch) or
    one frame per delivery (batching off).  Buffers are per-engine, so
    concurrently executing frames never interleave their epochs.
    """

    __slots__ = (
        "runtime",
        "ctx",
        "graph_id",
        "origin",
        "epoch",
        "batching",
        "rpc",
        "my_index",
        "my_name",
        "out_units",
        "out_results",
    )

    def __init__(
        self,
        runtime: "GraphRuntime",
        ctx: Any,
        graph_id: int,
        origin: str,
        epoch: int,
        batching: bool,
        rpc: bool = False,
    ) -> None:
        self.runtime = runtime
        self.ctx = ctx
        self.graph_id = graph_id
        self.origin = origin
        self.epoch = epoch
        self.batching = batching
        self.rpc = rpc
        self.my_name = ctx.guardian.name
        self.my_index = runtime.router.index_of(self.my_name)
        self.out_units: Dict[int, List[Tuple[int, TreeNode, Tuple[Any, ...]]]] = {}
        self.out_results: List[Tuple[int, str, Tuple[Any, ...]]] = []

    def run(self, units: List[Tuple[int, TreeNode, Tuple[Any, ...]]]):
        """Run *units* and every delivery they cascade into, depth first.

        Each delivery is routed once, by the shard that produces it: it
        executes here, joins a collector here, or is buffered for the
        shard that owns it.  *units* arrived because their sender routed
        them here, so they are not routed again.  An executed node's
        children are delivered before the next sibling's, so the order of
        executions (and so of simulated time) is that of a recursive
        walk, without a generator frame per node.
        """
        ctx = self.ctx
        state = ctx.guardian.state
        env = ctx.env
        router = self.runtime.router
        my_index = self.my_index
        out_units = self.out_units
        out_results = self.out_results
        route = not self.rpc
        stack = units[::-1]
        pop = stack.pop
        push = stack.append
        # The arrived units sit at the bottom of the stack, everything
        # pushed later above them: an entry popped from below this mark
        # is an arrived unit.
        arrived = len(stack)
        while stack:
            slot, node, values = unit = pop()
            spec = node.spec
            is_collector = node.is_collector
            if len(stack) < arrived:
                arrived -= 1
            elif route:
                if is_collector or spec.node_func is None:
                    key = node.sched_key
                else:
                    key = spec.node_func(node.captures, values)
                dest = router.shard_index(key)
                if dest != my_index:
                    out_units.setdefault(dest, []).append(unit)
                    continue
            if is_collector:
                entry_key = ("graph.collect", self.graph_id, node.node_id)
                inputs = state.get(entry_key)
                if inputs is None:
                    inputs = state[entry_key] = {}
                inputs[slot] = values
                if len(inputs) < node.n_inputs:
                    continue
                # Every input is in: drop the entry *before* yielding into
                # execution, so the join leaves no state behind.  It still
                # fires once: a delivery racing through this guardian can
                # only start a fresh entry, and a collector joins at least
                # two inputs, so one stray input cannot fill it.
                del state[entry_key]
                values = [inputs[i] for i in range(node.n_inputs)]
            yield ctx.compute(spec.cost)
            tracer = env.tracer
            if tracer is not None:
                tracer.emit(
                    "graph.routine",
                    shard=self.my_name,
                    graph=self.graph_id,
                    node=node.node_id,
                    callback=spec.name,
                    cost=spec.cost,
                    migrated=not is_collector
                    and router.shard_index(node.sched_key) != my_index,
                )
            outputs = spec.fn(state, node.captures, values)
            outputs = () if outputs is None else tuple(outputs)
            if node.wants_emit or not route:
                out_results.append((node.node_id, spec.name, outputs))
            for slot, child in reversed(node.children):
                push((slot, child, outputs))

    def flush(self) -> None:
        """Ship buffered units/results, one frame per destination."""
        router = self.runtime.router
        for dest_index in sorted(self.out_units):
            units = self.out_units[dest_index]
            dest = router.shard_names[dest_index]
            ref = self.ctx.lookup(dest, EXEC_HANDLER, group=GRAPH_GROUP)
            if self.batching:
                frame = encode_batch_frame(
                    self.graph_id, self.origin, self.epoch, FRAME_BATCHING, units
                )
                ref.batch(_to_wire(frame))
                self.runtime._emit_epoch(self.ctx, self.my_name, dest, self.epoch, len(units))
            else:
                for unit in units:
                    frame = encode_batch_frame(
                        self.graph_id, self.origin, self.epoch, 0, [unit]
                    )
                    ref.batch(_to_wire(frame))
                    self.runtime._emit_epoch(self.ctx, self.my_name, dest, self.epoch, 1)
        if self.out_results and not self.rpc:
            ref = self.ctx.lookup(self.origin, RESULT_HANDLER, group=GRAPH_GROUP)
            if self.batching:
                frame = encode_result_frame(self.graph_id, self.out_results)
                ref.batch(_to_wire(frame))
                self.runtime._emit_epoch(
                    self.ctx, self.my_name, self.origin, self.epoch, len(self.out_results)
                )
            else:
                for result in self.out_results:
                    ref.batch(_to_wire(encode_result_frame(self.graph_id, [result])))
                    self.runtime._emit_epoch(
                        self.ctx, self.my_name, self.origin, self.epoch, 1
                    )


class GraphRuntime:
    """Client- and shard-side machinery for one shard group."""

    def __init__(self, system: Any, shard_names: Iterable[str], origin: str) -> None:
        self.system = system
        self.router = ShardRouter(tuple(shard_names))
        self.origin = origin
        #: (graph_id, node_id) -> unresolved promise on the origin.
        self._pending: Dict[Tuple[int, int], Promise] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install_shard(self, guardian: Any) -> None:
        """Install the graph execution handlers on one shard guardian."""
        guardian.create_handler(
            EXEC_HANDLER, _EXEC_TYPE, self._exec_impl, group=GRAPH_GROUP
        )
        guardian.create_handler(
            EXEC_ONE_HANDLER, _EXEC_ONE_TYPE, self._exec_one_impl, group=GRAPH_GROUP
        )

    def install_origin(self, guardian: Any) -> None:
        """Install the result sink on the submitting guardian."""
        guardian.create_handler(
            RESULT_HANDLER, _RESULT_TYPE, self._result_impl, group=GRAPH_GROUP
        )

    # ------------------------------------------------------------------
    # Shard handlers
    # ------------------------------------------------------------------
    def _exec_impl(self, ctx: Any, frame_text: str):
        graph_id, origin, epoch, flags, units = decode_batch_frame(
            _from_wire(frame_text)
        )
        engine = _ShardEngine(
            self, ctx, graph_id, origin, epoch, batching=bool(flags & FRAME_BATCHING)
        )
        yield from engine.run(units)
        engine.flush()

    def _exec_one_impl(self, ctx: Any, frame_text: str):
        graph_id, origin, slot, node, values = decode_unit_frame(
            _from_wire(frame_text)
        )
        engine = _ShardEngine(
            self, ctx, graph_id, origin, epoch=0, batching=False, rpc=True
        )
        yield from engine.run([(slot, node, values)])
        return _to_wire(encode_result_frame(graph_id, engine.out_results))

    def _result_impl(self, ctx: Any, frame_text: str):
        graph_id, results = decode_result_frame(_from_wire(frame_text))
        for node_id, _name, outputs in results:
            promise = self._pending.pop((graph_id, node_id), None)
            if promise is not None and not promise.ready():
                promise.resolve_normal(*outputs)
        return
        yield  # unreachable: makes this handler a generator like the rest

    def abandon(self, reason: str = "graph result never arrived") -> int:
        """Resolve every still-pending submission promise to ``unavailable``.

        The give-up half of a bounded wait: a client that has slept its
        settle budget calls this so lost frames (a crashed shard, a
        broken cascade) break their promises instead of stranding them —
        exactly the paper's rule that communication failure maps to the
        ``unavailable`` condition.  Returns how many promises it broke;
        result frames that arrive later find nothing pending and are
        dropped.
        """
        count = 0
        for key in sorted(self._pending):
            promise = self._pending.pop(key)
            if not promise.ready():
                promise.resolve_exceptional(Unavailable(reason))
                count += 1
        return count

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def _root_shard(self, root: TreeNode) -> int:
        key = root.sched_key
        if root.spec.node_func is not None and not root.is_collector:
            key = root.spec.node_func(root.captures, ())
        return self.router.shard_index(key)

    def submit(
        self,
        ctx: Any,
        graph: GraphBuilder,
        epoch: int = 0,
        batching: bool = True,
    ) -> Dict[str, Promise]:
        """Ship *graph* to its shards; promises per emitting node, by tag.

        With ``batching`` on, all roots bound for one shard travel as a
        single epoch frame (and the shards batch their own cascades the
        same way); off, every delivery is its own frame — same DAG, same
        placement, strictly more wire messages.
        """
        roots, emits = graph.compile()
        graph_id = self.system.env.new_serial("graph")
        promises: Dict[str, Promise] = {}
        for node_id, tag, spec in emits:
            if tag in promises:
                raise GraphError("duplicate emit tag %r" % (tag,))
            promise = Promise(ctx.env, ptype=spec.promise_type, label="graph:%s" % tag)
            self._pending[(graph_id, node_id)] = promise
            promises[tag] = promise
        per_shard: Dict[int, List[Tuple[int, TreeNode, Tuple[Any, ...]]]] = {}
        for root in roots:
            per_shard.setdefault(self._root_shard(root), []).append((0, root, ()))
        for index in sorted(per_shard):
            units = per_shard[index]
            dest = self.router.shard_names[index]
            ref = ctx.lookup(dest, EXEC_HANDLER, group=GRAPH_GROUP)
            if batching:
                frame = encode_batch_frame(
                    graph_id, self.origin, epoch, FRAME_BATCHING, units
                )
                ref.batch(_to_wire(frame))
                self._emit_epoch(ctx, self.origin, dest, epoch, len(units))
            else:
                for unit in units:
                    frame = encode_batch_frame(graph_id, self.origin, epoch, 0, [unit])
                    ref.batch(_to_wire(frame))
                    self._emit_epoch(ctx, self.origin, dest, epoch, 1)
        return promises

    def run_rpc(self, ctx: Any, graph: GraphBuilder):
        """Drive the same DAG with one blocking RPC per edge (baseline).

        A generator for client processes: ``results = yield from
        runtime.run_rpc(ctx, g)``.  The client walks the DAG itself —
        every edge is a round trip carrying a single-node tree, and
        every join input is its own call against the collector's shard.
        Returns outputs keyed by emit tag, like :meth:`submit` resolves.
        """
        roots, emits = graph.compile()
        emit_tags = {node_id: tag for node_id, tag, _spec in emits}
        graph_id = self.system.env.new_serial("graph")
        results: Dict[str, Tuple[Any, ...]] = {}
        queue = deque((0, root, ()) for root in roots)
        while queue:
            slot, node, values = queue.popleft()
            key = node.sched_key
            if node.spec.node_func is not None and not node.is_collector:
                key = node.spec.node_func(node.captures, values)
            dest = self.router.shard_name(key)
            ref = ctx.lookup(dest, EXEC_ONE_HANDLER, group=GRAPH_GROUP)
            frame = encode_unit_frame(
                graph_id, self.origin, slot, node.without_children(), values
            )
            reply = yield ref.call(_to_wire(frame))
            _graph_id, fired = decode_result_frame(_from_wire(reply))
            for _node_id, _name, outputs in fired:
                tag = emit_tags.get(node.node_id)
                if tag is not None:
                    results[tag] = outputs
                for child_slot, child in node.children:
                    queue.append((child_slot, child, outputs))
        return results

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _emit_epoch(self, ctx: Any, src: str, dst: str, epoch: int, units: int) -> None:
        tracer = ctx.env.tracer
        if tracer is not None:
            tracer.emit("graph.epoch", shard=src, dst=dst, epoch=epoch, units=units)

    def pending_count(self) -> int:
        """Unresolved submissions (for tests and liveness checks)."""
        return len(self._pending)

    def __repr__(self) -> str:
        return "<GraphRuntime %s origin=%s>" % (list(self.router.shard_names), self.origin)
