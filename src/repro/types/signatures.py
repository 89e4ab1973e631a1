"""Type algebra for handler, port and promise types.

The paper's central typing claim is that promises are *strongly typed*:

    "Associated with each handler type is a related promise type. ...
     A promise type has a results part, listing the type or types of objects
     returned by the handler call in the normal case, and an exceptions
     part, listing the exceptions of the handler."

This module defines the small structural type language those signatures are
written in (ints, reals, bools, chars, strings, arrays, records, ports) plus
:class:`HandlerType` and :class:`PromiseType`, with the derivation
``HandlerType.promise_type()`` mirroring the paper's ``ht`` → ``pt``
relationship.  The same algebra is reused by the value-transmission layer
(:mod:`repro.encoding`) and the mini-Argus static checker
(:mod:`repro.lang.typecheck`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Type",
    "IntType",
    "RealType",
    "BoolType",
    "CharType",
    "StringType",
    "NullType",
    "AnyType",
    "ArrayOf",
    "RecordOf",
    "PortRefType",
    "UserType",
    "INT",
    "REAL",
    "BOOL",
    "CHAR",
    "STRING",
    "NULL",
    "ANY",
    "HandlerType",
    "PromiseType",
    "SignatureError",
]


class SignatureError(Exception):
    """Raised for malformed handler/promise signatures."""


class Type:
    """Base class for all type descriptors.  Types are immutable values."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        return ()

    def __repr__(self) -> str:
        return self.name()

    def name(self) -> str:
        """Human-readable spelling used in error messages and the DSL."""
        raise NotImplementedError


class IntType(Type):
    def name(self) -> str:
        return "int"


class RealType(Type):
    def name(self) -> str:
        return "real"


class BoolType(Type):
    def name(self) -> str:
        return "bool"


class CharType(Type):
    def name(self) -> str:
        return "char"


class StringType(Type):
    def name(self) -> str:
        return "string"


class NullType(Type):
    """The type of 'no value' (a handler with no results)."""

    def name(self) -> str:
        return "null"


class AnyType(Type):
    """Escape hatch matching any value; used sparingly by tests/baselines."""

    def name(self) -> str:
        return "any"


INT = IntType()
REAL = RealType()
BOOL = BoolType()
CHAR = CharType()
STRING = StringType()
NULL = NullType()
ANY = AnyType()


class ArrayOf(Type):
    """Homogeneous, ordered, growable sequence (CLU/Argus ``array[t]``)."""

    def __init__(self, element: Type) -> None:
        if not isinstance(element, Type):
            raise SignatureError("array element must be a Type, got %r" % (element,))
        self.element = element

    def _key(self) -> Tuple:
        return (self.element,)

    def name(self) -> str:
        return "array[%s]" % self.element.name()


class RecordOf(Type):
    """Named-field record (CLU/Argus ``record[f1: t1, ...]``).

    Field order is significant for the external representation.
    """

    def __init__(self, fields: Mapping[str, Type]) -> None:
        if not fields:
            raise SignatureError("record must have at least one field")
        for fname, ftype in fields.items():
            if not isinstance(ftype, Type):
                raise SignatureError(
                    "record field %r must be a Type, got %r" % (fname, ftype)
                )
        self.fields: Tuple[Tuple[str, Type], ...] = tuple(fields.items())

    def _key(self) -> Tuple:
        return self.fields

    def field_dict(self) -> Dict[str, Type]:
        """Field name -> type mapping (insertion order preserved)."""
        return dict(self.fields)

    def name(self) -> str:
        inner = ", ".join("%s: %s" % (f, t.name()) for f, t in self.fields)
        return "record[%s]" % inner


class PortRefType(Type):
    """A reference to a remote port (ports may travel in messages, §2).

    The carried :class:`HandlerType` types calls made through the reference.
    """

    def __init__(self, handler_type: "HandlerType") -> None:
        if not isinstance(handler_type, HandlerType):
            raise SignatureError(
                "port type must carry a HandlerType, got %r" % (handler_type,)
            )
        self.handler_type = handler_type

    def _key(self) -> Tuple:
        return (self.handler_type,)

    def name(self) -> str:
        return "port%s" % self.handler_type.suffix()


class UserType(Type):
    """An abstract data type with user-provided value transmission.

    "When an argument or result is an object belonging to some abstract
    type, encoding and decoding are done by user-provided code, which may
    contain errors" (§3).  A ``UserType`` carries that user code:
    ``to_external`` translates an internal value to a value of the
    *external* type; ``from_external`` translates back.  Either may raise —
    the runtime maps such errors to the ``failure`` exception and, on the
    receiving side, breaks the stream.
    """

    def __init__(
        self,
        type_name: str,
        external: Type,
        to_external,
        from_external,
        validate=None,
    ) -> None:
        if not isinstance(external, Type):
            raise SignatureError(
                "external representation must be a Type, got %r" % (external,)
            )
        if isinstance(external, (UserType, AnyType)):
            raise SignatureError(
                "external representation must be a concrete transmissible type"
            )
        self.type_name = type_name
        self.external = external
        self.to_external = to_external
        self.from_external = from_external
        self.validate = validate

    def _key(self) -> Tuple:
        return (self.type_name, self.external)

    def name(self) -> str:
        return self.type_name


def _type_tuple(items: Optional[Iterable[Type]], what: str) -> Tuple[Type, ...]:
    if items is None:
        return ()
    out = []
    for item in items:
        if not isinstance(item, Type):
            raise SignatureError("%s must be Types, got %r" % (what, item))
        out.append(item)
    return tuple(out)


#: Exception names every handler implicitly carries (the paper: "Since any
#: call can fail, every handler can raise the exceptions failure and
#: unavailable.  We do not bother to list these exceptions explicitly.")
IMPLICIT_SIGNALS: Tuple[str, ...] = ("unavailable", "failure")


class HandlerType(Type):
    """``handlertype (args) returns (results) signals (name(types), ...)``.

    Handler types are first-class types: variables (and DSL bindings) may
    hold handler references, typed by one of these.
    """

    def __init__(
        self,
        args: Optional[Sequence[Type]] = None,
        returns: Optional[Sequence[Type]] = None,
        signals: Optional[Mapping[str, Sequence[Type]]] = None,
    ) -> None:
        self.args = _type_tuple(args, "handler arguments")
        self.returns = _type_tuple(returns, "handler results")
        sig_map: Dict[str, Tuple[Type, ...]] = {}
        for sname, stypes in (signals or {}).items():
            if sname in IMPLICIT_SIGNALS:
                raise SignatureError(
                    "signal %r is implicit on every handler; do not declare it"
                    % sname
                )
            sig_map[sname] = _type_tuple(stypes, "signal %r arguments" % sname)
        self.signals: Dict[str, Tuple[Type, ...]] = sig_map

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HandlerType)
            and self.args == other.args
            and self.returns == other.returns
            and self.signals == other.signals
        )

    def __hash__(self) -> int:
        return hash((self.args, self.returns, tuple(sorted(self.signals.items()))))

    def suffix(self) -> str:
        """The ``(args) returns (...) signals (...)`` spelling (no keyword)."""
        parts = ["(%s)" % ", ".join(t.name() for t in self.args)]
        if self.returns:
            parts.append("returns (%s)" % ", ".join(t.name() for t in self.returns))
        if self.signals:
            sigs = []
            for sname, stypes in self.signals.items():
                if stypes:
                    sigs.append("%s(%s)" % (sname, ", ".join(t.name() for t in stypes)))
                else:
                    sigs.append(sname)
            parts.append("signals (%s)" % ", ".join(sigs))
        return " ".join(parts)

    def __repr__(self) -> str:
        return "handlertype %s" % self.suffix()

    def name(self) -> str:
        return repr(self)

    # The two memos below are read on every stream call.  A cached_property
    # is computed on first read and is then a plain instance attribute.
    @cached_property
    def has_results(self) -> bool:
        """Whether a normal reply carries data (if not, calls go as *sends*)."""
        return bool(self.returns)

    def promise_type(self) -> "PromiseType":
        """Derive the related promise type (paper §3: ``ht`` → ``pt``).

        Types are immutable values, so it is derived once and then shared
        by the promises of every call to this handler type.
        """
        try:
            return self._promise_type
        except AttributeError:
            ptype = PromiseType(returns=self.returns, signals=self.signals)
            self._promise_type = ptype
            return ptype

    def declares_signal(self, name: str) -> bool:
        """Whether *name* is a declared or implicit exception here."""
        return name in self.signals or name in IMPLICIT_SIGNALS


class PromiseType(Type):
    """``promise returns (results) signals (name(types), ...)``.

    Like handler types, every promise type implicitly carries the
    ``unavailable`` and ``failure`` exceptions.  Promise types are
    first-class (variables and arrays may hold promises) but promises are
    never transmissible (§3: "promises are not legal as arguments or
    results").
    """

    def __init__(
        self,
        returns: Optional[Sequence[Type]] = None,
        signals: Optional[Mapping[str, Sequence[Type]]] = None,
    ) -> None:
        self.returns = _type_tuple(returns, "promise results")
        sig_map: Dict[str, Tuple[Type, ...]] = {}
        for sname, stypes in (signals or {}).items():
            if sname in IMPLICIT_SIGNALS:
                raise SignatureError(
                    "signal %r is implicit on every promise; do not declare it"
                    % sname
                )
            sig_map[sname] = _type_tuple(stypes, "signal %r arguments" % sname)
        self.signals: Dict[str, Tuple[Type, ...]] = sig_map

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PromiseType)
            and self.returns == other.returns
            and self.signals == other.signals
        )

    def __hash__(self) -> int:
        return hash((self.returns, tuple(sorted(self.signals.items()))))

    def __repr__(self) -> str:
        parts = ["promise"]
        if self.returns:
            parts.append("returns (%s)" % ", ".join(t.name() for t in self.returns))
        if self.signals:
            sigs = []
            for sname, stypes in self.signals.items():
                if stypes:
                    sigs.append("%s(%s)" % (sname, ", ".join(t.name() for t in stypes)))
                else:
                    sigs.append(sname)
            parts.append("signals (%s)" % ", ".join(sigs))
        return " ".join(parts)

    def name(self) -> str:
        return repr(self)

    def declares_signal(self, name: str) -> bool:
        """Whether *name* is a declared or implicit exception here."""
        return name in self.signals or name in IMPLICIT_SIGNALS
