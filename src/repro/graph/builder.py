"""Declarative construction of promise graphs.

A :class:`GraphBuilder` grows a DAG of registered routines::

    g = GraphBuilder()
    a = g.source("kv_add", captures=(key, delta), sched_key=key)
    b = a.then("kv_scale")                 # runs where its input lives
    s = g.collect("kv_sum2", inputs=[b, c])  # static collector: joins two

Edges are type-checked as they are drawn (a parent's output row must
match the child's input row), and cycles are impossible by construction:
``then``/``collect`` only ever create *new* nodes downstream of existing
handles.  ``compile()`` freezes the DAG into the flat
:class:`~repro.graph.codec.TreeNode` trees the runtime ships — a shared
collector is duplicated under each parent (the runtime joins the copies
by node id), and leaves are auto-emitted so every graph produces at
least one observable result.

Handles hold their builder only weakly, so a builder and its handles
form no reference cycle: a submitted graph is freed as soon as the
caller drops it, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

import weakref
from typing import Any, List, Optional, Sequence, Tuple

from repro.graph.codec import (
    FLAG_COLLECTOR,
    FLAG_EMIT,
    RoutineSpec,
    TreeNode,
    routine,
)

__all__ = ["GraphBuilder", "GraphError", "NodeHandle"]


class GraphError(Exception):
    """Raised for malformed graph construction."""


class NodeHandle:
    """A node under construction; the fluent surface of the builder.

    Creating a handle appends it to *builder* as the next node.
    """

    __slots__ = (
        "_builder",
        "spec",
        "node_id",
        "sched_key",
        "captures",
        "n_inputs",
        "_collector",
        "_emit",
        "emit_tag",
        "_children",
        "_n_parents",
    )

    def __init__(
        self,
        builder: "GraphBuilder",
        spec: RoutineSpec,
        sched_key: int,
        captures: Tuple[Any, ...],
        n_inputs: int,
        collector: bool,
    ) -> None:
        if len(captures) != len(spec.capture_types):
            raise GraphError(
                "%s takes %d captures, got %d"
                % (spec.name, len(spec.capture_types), len(captures))
            )
        handles = builder._handles
        self._builder = builder._ref
        self.spec = spec
        self.node_id = len(handles)
        self.sched_key = sched_key
        self.captures = captures
        self.n_inputs = n_inputs
        self._collector = collector
        self._emit = False
        self.emit_tag: Optional[str] = None
        self._children: List[Tuple[int, "NodeHandle"]] = []
        self._n_parents = 0
        handles.append(self)

    def then(
        self,
        name: str,
        captures: Sequence[Any] = (),
        sched_key: Optional[int] = None,
    ) -> "NodeHandle":
        """A child routine fed by this node's outputs.

        With no explicit ``sched_key`` the child inherits the parent's —
        it runs on the same shard unless its ``node_func`` migrates it.
        Calling ``then`` several times on one handle fans the outputs out
        to several independent children.  The handle's builder must still
        be alive.
        """
        builder = self._builder()
        if builder is None:
            raise GraphError("%r outlived its builder" % (self,))
        spec = routine(name)
        if self.spec.output_types != spec.input_types:
            raise GraphError(
                "%s outputs %r do not feed %s inputs %r"
                % (self.spec.name, self.spec.output_types, name, spec.input_types)
            )
        child = NodeHandle(
            builder,
            spec,
            self.sched_key if sched_key is None else sched_key,
            tuple(captures),
            n_inputs=1,
            collector=False,
        )
        self._children.append((0, child))
        child._n_parents += 1
        return child

    def emit(self, tag: Optional[str] = None) -> "NodeHandle":
        """Report this node's outputs back to the origin as a promise."""
        self._emit = True
        if tag is not None:
            self.emit_tag = tag
        return self

    def __repr__(self) -> str:
        return "<NodeHandle #%d %s>" % (self.node_id, self.spec.name)


class GraphBuilder:
    """Accumulates a promise DAG and freezes it into routine trees."""

    def __init__(self) -> None:
        self._handles: List[NodeHandle] = []
        self._ref = weakref.ref(self)

    def source(
        self, name: str, captures: Sequence[Any] = (), sched_key: int = 0
    ) -> NodeHandle:
        """A root routine: all of its data arrives via captures."""
        spec = routine(name)
        if spec.input_types:
            raise GraphError(
                "source routine %s declares inputs %r; feed it with then()/collect()"
                % (name, spec.input_types)
            )
        return NodeHandle(
            self, spec, sched_key, tuple(captures), n_inputs=0, collector=False
        )

    def collect(
        self,
        name: str,
        inputs: Sequence[NodeHandle],
        captures: Sequence[Any] = (),
        sched_key: int = 0,
    ) -> NodeHandle:
        """A static collector: fires once every input handle has delivered.

        The routine's ``fn`` receives the deliveries as a slot-ordered
        list of output tuples.  Collectors route by their static
        ``sched_key`` only (a ``node_func`` cannot move a join whose
        inputs arrive independently), so pick the key of the shard that
        owns most of the join's data.
        """
        spec = routine(name)
        if len(inputs) < 2:
            raise GraphError("collector %s needs at least two inputs" % (name,))
        if len(inputs) > 255:
            raise GraphError("collector %s joins too many inputs" % (name,))
        for handle in inputs:
            if handle._builder is not self._ref:
                raise GraphError("collector input %r belongs to another builder" % (handle,))
            if handle.spec.output_types != spec.input_types:
                raise GraphError(
                    "%s outputs %r do not feed collector %s inputs %r"
                    % (handle.spec.name, handle.spec.output_types, name, spec.input_types)
                )
        child = NodeHandle(
            self, spec, sched_key, tuple(captures), n_inputs=len(inputs), collector=True
        )
        for slot, parent in enumerate(inputs):
            parent._children.append((slot, child))
            child._n_parents += 1
        return child

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def compile(self) -> Tuple[List[TreeNode], List[Tuple[int, str, RoutineSpec]]]:
        """Freeze into (root trees, emitted nodes).

        Returns the root :class:`TreeNode` per parentless handle plus a
        ``(node_id, tag, spec)`` row for every emitting node.  Leaves
        with no explicit ``emit()`` are auto-emitted under a default tag
        so no computation disappears silently.
        """
        handles = self._handles
        if not handles:
            raise GraphError("empty graph")
        emits: List[Tuple[int, str, RoutineSpec]] = []
        for handle in handles:
            if not handle._children and not handle._emit:
                handle._emit = True
            if handle._emit:
                tag = handle.emit_tag
                if tag is None:
                    tag = "%s#%d" % (handle.spec.name, handle.node_id)
                emits.append((handle.node_id, tag, handle.spec))
            if len(handle._children) > 255:
                raise GraphError(
                    "node %r fans out to too many children" % (handle,)
                )

        # Every child is created after its parents, so one pass from the
        # newest handle back finds each node's children already frozen.
        frozen: List[Any] = [None] * len(handles)
        for handle in reversed(handles):
            flags = (FLAG_COLLECTOR if handle._collector else 0) | (
                FLAG_EMIT if handle._emit else 0
            )
            children = handle._children
            frozen[handle.node_id] = TreeNode(
                handle.spec,
                handle.node_id,
                handle.sched_key,
                flags,
                handle.n_inputs,
                handle.captures,
                [(slot, frozen[child.node_id]) for slot, child in children]
                if children
                else (),
            )
        roots = [frozen[h.node_id] for h in handles if h._n_parents == 0]
        return roots, emits
