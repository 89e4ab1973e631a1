"""Flat routine-tree codec and routine registry for promise graphs.

A shipped graph fragment is a *routine tree*: the node to run next plus
the entire subtree that depends on it.  Trees travel inside three frame
kinds, all built on the compiled flat codecs of :mod:`repro.encoding.xrep`
(captures, inputs and outputs are encoded by the registered routine's
compiled per-type encoders — no per-value isinstance dispatch on the hot
path):

``GB``  batch frame    one epoch of units bound for one shard
``GU``  unit frame     a single delivery (the per-edge RPC baseline)
``GR``  result frame   emitted node outputs flowing back to the origin

Like the rest of the encoding layer, decoding is *total*: any truncated
or corrupted buffer raises :class:`~repro.encoding.errors.DecodeError`,
never an arbitrary exception — the graph fuzz suite pins this.

Routines themselves never travel: the wire carries the routine's *name*,
and both ends must have registered the same routine (same callback, same
type row) ahead of time.  This mirrors the paper's stance on user code in
value transmission — behaviour is installed, only data moves.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.encoding.errors import DecodeError, EncodeError
from repro.encoding.xrep import (
    _decode_str_flat,
    _encode_str,
    compile_decoder,
    compile_encoder,
)
from repro.types.signatures import PromiseType, Type

__all__ = [
    "FLAG_COLLECTOR",
    "FLAG_EMIT",
    "FRAME_BATCHING",
    "RoutineSpec",
    "TreeNode",
    "register_routine",
    "routine",
    "encode_tree",
    "decode_tree",
    "encode_batch_frame",
    "decode_batch_frame",
    "encode_unit_frame",
    "decode_unit_frame",
    "encode_result_frame",
    "decode_result_frame",
]

_INT = struct.Struct(">q")
_LEN = struct.Struct(">I")
_SLOT = struct.Struct(">H")
#: Tree node header after the name: node_id, sched_key, flags, n_inputs.
_NODE_HEAD = struct.Struct(">qqBB")

#: Node flag: the node joins several inputs and fires once all arrive.
FLAG_COLLECTOR = 0x01
#: Node flag: the node's outputs are reported back to the origin guardian.
FLAG_EMIT = 0x02
_NODE_FLAGS = FLAG_COLLECTOR | FLAG_EMIT

#: Batch-frame flag: downstream hops should also batch per destination.
FRAME_BATCHING = 0x01
_FRAME_FLAGS = FRAME_BATCHING

_VERSION = 1
_MAGIC_BATCH = b"GB"
_MAGIC_UNIT = b"GU"
_MAGIC_RESULT = b"GR"

#: Recursion guard: no sane graph nests this deep; a corrupted child
#: count must not be able to drive the decoder into unbounded recursion.
_MAX_DEPTH = 64

#: Smallest possible encoded node: empty name (4) + node_id (8) +
#: sched_key (8) + flags (1) + n_inputs (1) + n_children (1).
_MIN_NODE_BYTES = 23
#: Smallest possible unit: slot (2) + minimal node.
_MIN_UNIT_BYTES = 2 + _MIN_NODE_BYTES
#: Smallest possible result: node_id (8) + empty name (4).
_MIN_RESULT_BYTES = 12


class RoutineSpec:
    """A registered graph routine: the unit of remote execution.

    ``fn(state, captures, inputs)`` runs on the destination guardian with
    that guardian's persistent ``state`` dict, the captures shipped in the
    tree, and the delivered input values — a tuple for ordinary nodes, a
    slot-ordered list of tuples for collectors.  It returns the output
    tuple.  ``node_func(captures, inputs)``, when given, recomputes the
    scheduling key from the *actual* inputs; a delivery whose recomputed
    key hashes to a different shard migrates there instead of executing.
    ``promise_type`` is the type of the promise an emitted node resolves.
    """

    __slots__ = (
        "name",
        "fn",
        "capture_types",
        "input_types",
        "output_types",
        "node_func",
        "cost",
        "promise_type",
        "_wire_name",
        "_capture_encoders",
        "_capture_decoders",
        "_input_encoders",
        "_input_decoders",
        "_output_encoders",
        "_output_decoders",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[..., Tuple[Any, ...]],
        capture_types: Sequence[Type],
        input_types: Sequence[Type],
        output_types: Sequence[Type],
        node_func: Optional[Callable[..., int]] = None,
        cost: float = 0.05,
    ) -> None:
        self.name = name
        self.fn = fn
        self.capture_types = tuple(capture_types)
        self.input_types = tuple(input_types)
        self.output_types = tuple(output_types)
        self.node_func = node_func
        self.cost = cost
        self.promise_type = PromiseType(returns=self.output_types)
        #: The name as every encoded node carries it: length, then UTF-8.
        wire_name = bytearray()
        _encode_str(wire_name, name)
        self._wire_name = bytes(wire_name)
        self._capture_encoders = tuple(compile_encoder(t) for t in self.capture_types)
        self._capture_decoders = tuple(compile_decoder(t) for t in self.capture_types)
        self._input_encoders = tuple(compile_encoder(t) for t in self.input_types)
        self._input_decoders = tuple(compile_decoder(t) for t in self.input_types)
        self._output_encoders = tuple(compile_encoder(t) for t in self.output_types)
        self._output_decoders = tuple(compile_decoder(t) for t in self.output_types)

    def __repr__(self) -> str:
        return "<RoutineSpec %s/%d->%d>" % (
            self.name,
            len(self.input_types),
            len(self.output_types),
        )


_REGISTRY: Dict[str, RoutineSpec] = {}


def register_routine(
    name: str,
    fn: Callable[..., Tuple[Any, ...]],
    capture_types: Sequence[Type] = (),
    input_types: Sequence[Type] = (),
    output_types: Sequence[Type] = (),
    node_func: Optional[Callable[..., int]] = None,
    cost: float = 0.05,
) -> RoutineSpec:
    """Register (or re-register) a routine under *name*.

    The latest registration wins; both ends of a wire must agree on the
    type row or decoding fails.  Routines must be deterministic functions
    of ``(state, captures, inputs)`` — they may be re-executed by crash
    recovery at a higher level.
    """
    for tp in tuple(capture_types) + tuple(input_types) + tuple(output_types):
        if not isinstance(tp, Type):
            raise TypeError("routine types must be Types, got %r" % (tp,))
    spec = RoutineSpec(name, fn, capture_types, input_types, output_types, node_func, cost)
    _REGISTRY[name] = spec
    return spec


def routine(name: str) -> RoutineSpec:
    """The registered routine named *name* (KeyError if absent)."""
    return _REGISTRY[name]


class TreeNode:
    """One node of a flat routine tree.

    ``children`` is a tuple of ``(slot, TreeNode)`` edges: the parent's
    outputs are delivered into the child's input slot *slot*.  A shared
    collector appears as a child under each of its parents — the encoded
    tree duplicates it, and the runtime joins the copies by ``node_id``
    in guardian state.

    A node decoded as a *child* remembers where its subtree sits in the
    received buffer (``_wire[_wire_start:_wire_end]``), so re-shipping the
    leftover subtree after its parent ran appends those bytes instead of
    walking and re-encoding it.  A unit's root never does: it runs where
    it lands, and is re-encoded only on the rarer migration.
    """

    __slots__ = (
        "spec",
        "node_id",
        "sched_key",
        "flags",
        "is_collector",
        "wants_emit",
        "n_inputs",
        "captures",
        "children",
        "_wire",
        "_wire_start",
        "_wire_end",
    )

    def __init__(
        self,
        spec: RoutineSpec,
        node_id: int,
        sched_key: int,
        flags: int,
        n_inputs: int,
        captures: Tuple[Any, ...],
        children: Tuple[Tuple[int, "TreeNode"], ...] = (),
    ) -> None:
        self.spec = spec
        self.node_id = node_id
        self.sched_key = sched_key
        self.flags = flags
        self.is_collector = bool(flags & FLAG_COLLECTOR)
        self.wants_emit = bool(flags & FLAG_EMIT)
        self.n_inputs = n_inputs
        self.captures = tuple(captures)
        self.children = tuple(children)
        self._wire = None

    def without_children(self) -> "TreeNode":
        """A copy of this node alone (the per-edge RPC baseline ships these)."""
        return TreeNode(
            self.spec,
            self.node_id,
            self.sched_key,
            self.flags,
            self.n_inputs,
            self.captures,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TreeNode)
            and self.spec.name == other.spec.name
            and self.node_id == other.node_id
            and self.sched_key == other.sched_key
            and self.flags == other.flags
            and self.n_inputs == other.n_inputs
            and self.captures == other.captures
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.spec.name, self.node_id))

    def __repr__(self) -> str:
        return "<TreeNode #%d %s key=%d children=%d>" % (
            self.node_id,
            self.spec.name,
            self.sched_key,
            len(self.children),
        )


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------

def encode_tree(node: TreeNode, out: bytearray) -> None:
    """Append the flat encoding of *node* and its subtree to *out*."""
    wire = node._wire
    if wire is not None:
        out += wire[node._wire_start:node._wire_end]
        return
    spec = node.spec
    if len(node.captures) != len(spec.capture_types):
        raise EncodeError(
            "%s carries %d captures, spec wants %d"
            % (spec.name, len(node.captures), len(spec.capture_types))
        )
    out += spec._wire_name
    out += _NODE_HEAD.pack(node.node_id, node.sched_key, node.flags, node.n_inputs)
    for encoder, value in zip(spec._capture_encoders, node.captures):
        encoder(value, out)
    out.append(len(node.children))
    for slot, child in node.children:
        out += _SLOT.pack(slot)
        encode_tree(child, out)


def decode_tree(data: Any, offset: int, depth: int = 0) -> Tuple[TreeNode, int]:
    """Decode one tree node (and subtree) at *offset*; total on bad input."""
    if depth > _MAX_DEPTH:
        raise DecodeError("routine tree deeper than %d" % _MAX_DEPTH)
    if data.__class__ is not bytes:
        # Decoded children keep their bytes by reference, so they must
        # not see later writes to a caller's mutable buffer.
        data = bytes(data)
    size = len(data)
    if offset + 4 > size:
        raise DecodeError("truncated routine name length")
    end = offset + 4 + _LEN.unpack_from(data, offset)[0]
    if end > size:
        raise DecodeError("truncated routine name")
    try:
        name = data[offset + 4:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8 in routine name: %s" % exc) from exc
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DecodeError("unknown routine %r" % (name,))
    offset = end + _NODE_HEAD.size
    if offset > size:
        raise DecodeError("truncated tree node header")
    node_id, sched_key, flags, n_inputs = _NODE_HEAD.unpack_from(data, end)
    if flags & ~_NODE_FLAGS:
        raise DecodeError("unknown tree node flags 0x%02x" % (flags,))
    if flags & FLAG_COLLECTOR:
        if n_inputs < 2:
            raise DecodeError("collector node with %d input slots" % (n_inputs,))
    elif n_inputs > 1:
        raise DecodeError("non-collector node with %d input slots" % (n_inputs,))
    values: List[Any] = []
    for decoder in spec._capture_decoders:
        offset = decoder(data, offset, values)
    captures = tuple(values)
    if offset + 1 > size:
        raise DecodeError("truncated child count")
    n_children = data[offset]
    offset += 1
    if n_children * (2 + _MIN_NODE_BYTES) > size - offset:
        raise DecodeError("child count %d exceeds remaining payload" % (n_children,))
    children = []
    for _ in range(n_children):
        if offset + 2 > size:
            raise DecodeError("truncated child slot")
        (slot,) = _SLOT.unpack_from(data, offset)
        start = offset + 2
        child, offset = decode_tree(data, start, depth + 1)
        child._wire = data
        child._wire_start = start
        child._wire_end = offset
        if slot >= max(1, child.n_inputs):
            raise DecodeError(
                "edge into slot %d of a %d-input node" % (slot, child.n_inputs)
            )
        if spec.output_types != child.spec.input_types:
            raise DecodeError(
                "edge type mismatch: %s outputs do not feed %s"
                % (name, child.spec.name)
            )
        children.append((slot, child))
    return (
        TreeNode(spec, node_id, sched_key, flags, n_inputs, captures, tuple(children)),
        offset,
    )


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------

def _encode_unit(
    out: bytearray, slot: int, node: TreeNode, values: Tuple[Any, ...]
) -> None:
    if len(values) != len(node.spec.input_types):
        raise EncodeError(
            "%s delivery carries %d values, spec wants %d"
            % (node.spec.name, len(values), len(node.spec.input_types))
        )
    out += _SLOT.pack(slot)
    encode_tree(node, out)
    for encoder, value in zip(node.spec._input_encoders, values):
        encoder(value, out)


def _decode_unit(data: Any, offset: int) -> Tuple[int, TreeNode, Tuple[Any, ...], int]:
    if offset + 2 > len(data):
        raise DecodeError("truncated unit slot")
    (slot,) = _SLOT.unpack_from(data, offset)
    node, offset = decode_tree(data, offset + 2)
    if slot >= max(1, node.n_inputs):
        raise DecodeError(
            "unit delivers slot %d of a %d-input node" % (slot, node.n_inputs)
        )
    values: List[Any] = []
    for decoder in node.spec._input_decoders:
        offset = decoder(data, offset, values)
    return slot, node, tuple(values), offset


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def _decode_header(data: Any, magic: bytes) -> int:
    if len(data) < 3:
        raise DecodeError("truncated frame header")
    head = data[0:2]
    if head.__class__ is not bytes:
        head = bytes(head)
    if head != magic:
        raise DecodeError("bad frame magic %r (want %r)" % (head, magic))
    if data[2] != _VERSION:
        raise DecodeError("unsupported frame version %d" % (data[2],))
    return 3


def encode_batch_frame(
    graph_id: int,
    origin: str,
    epoch: int,
    flags: int,
    units: Sequence[Tuple[int, TreeNode, Tuple[Any, ...]]],
) -> bytes:
    """One epoch of deliveries bound for one shard, as a single frame."""
    out = bytearray(_MAGIC_BATCH)
    out.append(_VERSION)
    out.append(flags)
    out += _INT.pack(graph_id)
    _encode_str(out, origin)
    out += _INT.pack(epoch)
    out += _LEN.pack(len(units))
    for slot, node, values in units:
        _encode_unit(out, slot, node, values)
    return bytes(out)


def decode_batch_frame(
    data: Any,
) -> Tuple[int, str, int, int, List[Tuple[int, TreeNode, Tuple[Any, ...]]]]:
    """Decode a batch frame into (graph_id, origin, epoch, flags, units)."""
    if data.__class__ is not bytes:
        data = bytes(data)  # once per frame, not once per unit
    offset = _decode_header(data, _MAGIC_BATCH)
    if offset + 1 > len(data):
        raise DecodeError("truncated batch flags")
    flags = data[offset]
    offset += 1
    if flags & ~_FRAME_FLAGS:
        raise DecodeError("unknown batch frame flags 0x%02x" % (flags,))
    if offset + 8 > len(data):
        raise DecodeError("truncated graph id")
    (graph_id,) = _INT.unpack_from(data, offset)
    origin, offset = _decode_str_flat(data, offset + 8)
    if offset + 12 > len(data):
        raise DecodeError("truncated epoch header")
    (epoch,) = _INT.unpack_from(data, offset)
    (count,) = _LEN.unpack_from(data, offset + 8)
    offset += 12
    if count * _MIN_UNIT_BYTES > len(data) - offset:
        raise DecodeError("unit count %d exceeds remaining payload" % (count,))
    units = []
    for _ in range(count):
        slot, node, values, offset = _decode_unit(data, offset)
        units.append((slot, node, values))
    if offset != len(data):
        raise DecodeError("%d trailing bytes after decoding" % (len(data) - offset))
    return graph_id, origin, epoch, flags, units


def encode_unit_frame(
    graph_id: int,
    origin: str,
    slot: int,
    node: TreeNode,
    values: Tuple[Any, ...],
) -> bytes:
    """A single delivery as its own frame (per-edge RPC baseline)."""
    out = bytearray(_MAGIC_UNIT)
    out.append(_VERSION)
    out += _INT.pack(graph_id)
    _encode_str(out, origin)
    _encode_unit(out, slot, node, values)
    return bytes(out)


def decode_unit_frame(data: Any) -> Tuple[int, str, int, TreeNode, Tuple[Any, ...]]:
    """Decode a unit frame into (graph_id, origin, slot, node, values)."""
    if data.__class__ is not bytes:
        data = bytes(data)
    offset = _decode_header(data, _MAGIC_UNIT)
    if offset + 8 > len(data):
        raise DecodeError("truncated graph id")
    (graph_id,) = _INT.unpack_from(data, offset)
    origin, offset = _decode_str_flat(data, offset + 8)
    slot, node, values, offset = _decode_unit(data, offset)
    if offset != len(data):
        raise DecodeError("%d trailing bytes after decoding" % (len(data) - offset))
    return graph_id, origin, slot, node, values


def encode_result_frame(
    graph_id: int,
    results: Sequence[Tuple[int, str, Tuple[Any, ...]]],
) -> bytes:
    """Emitted node outputs flowing back to the origin guardian."""
    out = bytearray(_MAGIC_RESULT)
    out.append(_VERSION)
    out += _INT.pack(graph_id)
    out += _LEN.pack(len(results))
    for node_id, name, outputs in results:
        spec = _REGISTRY[name]
        out += _INT.pack(node_id)
        out += spec._wire_name
        if len(outputs) != len(spec.output_types):
            raise EncodeError(
                "%s emitted %d outputs, spec wants %d"
                % (name, len(outputs), len(spec.output_types))
            )
        for encoder, value in zip(spec._output_encoders, outputs):
            encoder(value, out)
    return bytes(out)


def decode_result_frame(data: Any) -> Tuple[int, List[Tuple[int, str, Tuple[Any, ...]]]]:
    """Decode a result frame into (graph_id, [(node_id, name, outputs)])."""
    offset = _decode_header(data, _MAGIC_RESULT)
    if offset + 12 > len(data):
        raise DecodeError("truncated result header")
    (graph_id,) = _INT.unpack_from(data, offset)
    (count,) = _LEN.unpack_from(data, offset + 8)
    offset += 12
    if count * _MIN_RESULT_BYTES > len(data) - offset:
        raise DecodeError("result count %d exceeds remaining payload" % (count,))
    results = []
    for _ in range(count):
        if offset + 8 > len(data):
            raise DecodeError("truncated result node id")
        (node_id,) = _INT.unpack_from(data, offset)
        name, offset = _decode_str_flat(data, offset + 8)
        spec = _REGISTRY.get(name)
        if spec is None:
            raise DecodeError("unknown routine %r" % (name,))
        values: List[Any] = []
        for decoder in spec._output_decoders:
            offset = decoder(data, offset, values)
        results.append((node_id, name, tuple(values)))
    if offset != len(data):
        raise DecodeError("%d trailing bytes after decoding" % (len(data) - offset))
    return graph_id, results
