"""Codecs for call arguments and call outcomes.

The transport ships two kinds of typed payloads: the argument tuple of a
call (typed by the handler's argument list) and the outcome of a call
(typed by the handler's results and declared signals).  Both are encoded
with the external representation of :mod:`repro.encoding.xrep`.

Outcome wire format: a one-byte condition tag —

====  ===========================================
0     normal; followed by the encoded results
1     user signal; name string, then its results
2     ``unavailable``; reason string
3     ``failure``; reason string
====  ===========================================
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.core.exceptions import Failure, Signal, Unavailable
from repro.core.outcome import Outcome
from repro.encoding.errors import DecodeError, EncodeError
from repro.encoding.xrep import compile_decoder, compile_encoder
from repro.types.signatures import STRING, HandlerType, UserType

__all__ = ["ArgsCodec", "OutcomeCodec", "failing_user_type"]

_TAG_NORMAL = 0
_TAG_SIGNAL = 1
_TAG_UNAVAILABLE = 2
_TAG_FAILURE = 3

#: Compiled string codec shared by the outcome wire format's name/reason
#: fields (STRING is a module singleton, so this is the cached closure).
_encode_str = compile_encoder(STRING)
_decode_str = compile_decoder(STRING)


class ArgsCodec:
    """Encode/decode a handler call's argument tuple.

    Construction compiles one flat closure per argument type (see
    :func:`repro.encoding.xrep.compile_encoder`); encoding appends into a
    reusable scratch bytearray, so a call with *k* arguments costs *k*
    closure calls and one final ``bytes()`` copy — no per-value tuples,
    no isinstance dispatch, no intermediate buffers.
    """

    __slots__ = ("handler_type", "_encoders", "_decoders", "_buf")

    def __init__(self, handler_type: HandlerType) -> None:
        self.handler_type = handler_type
        self._encoders = [compile_encoder(tp) for tp in handler_type.args]
        self._decoders = [compile_decoder(tp) for tp in handler_type.args]
        #: Reusable encode scratch buffer; None while rented by an
        #: in-progress encode (a user type's to_external could re-enter).
        self._buf: Any = bytearray()

    @classmethod
    def for_type(cls, handler_type: HandlerType) -> "ArgsCodec":
        """The shared codec for *handler_type*, memoized on the type itself.

        Codecs are stateless w.r.t. the calls they encode, so one instance
        per handler type serves every call site (sender, receiver,
        dispatcher) instead of a fresh allocation per call — and the
        compiled closures are built once per handler type, not per call.
        """
        try:
            return handler_type._args_codec
        except AttributeError:
            codec = cls(handler_type)
            handler_type._args_codec = codec
            return codec

    def encode(self, args: Sequence[Any]) -> bytes:
        """Encode the argument tuple to its external representation."""
        encoders = self._encoders
        if len(args) != len(encoders):
            raise EncodeError(
                "value count %d does not match type count %d"
                % (len(args), len(encoders))
            )
        buf = self._buf
        if buf is None:  # re-entrant encode: fall back to a fresh buffer
            buf = bytearray()
        else:
            self._buf = None
            del buf[:]
        try:
            for encoder, value in zip(encoders, args):
                encoder(value, buf)
            return bytes(buf)
        finally:
            self._buf = buf

    def decode(self, data: Any) -> Tuple[Any, ...]:
        """Decode an argument tuple; raises DecodeError on bad data.

        *data* may be ``bytes`` or a ``memoryview`` over a framed
        payload; decoding walks offsets in place either way.
        """
        values: list = []
        offset = 0
        for decoder in self._decoders:
            offset = decoder(data, offset, values)
        if offset != len(data):
            raise DecodeError(
                "%d trailing bytes after decoding" % (len(data) - offset)
            )
        return tuple(values)


class OutcomeCodec:
    """Encode/decode a call :class:`~repro.core.outcome.Outcome`.

    Compiled like :class:`ArgsCodec`: result types and every declared
    signal's types get flat closures at construction, and decoding
    threads an offset from byte 1 instead of slicing the payload.
    """

    __slots__ = (
        "handler_type",
        "_ret_encoders",
        "_ret_decoders",
        "_signal_encoders",
        "_signal_decoders",
        "_buf",
    )

    def __init__(self, handler_type: HandlerType) -> None:
        self.handler_type = handler_type
        self._ret_encoders = [compile_encoder(tp) for tp in handler_type.returns]
        self._ret_decoders = [compile_decoder(tp) for tp in handler_type.returns]
        self._signal_encoders = {
            name: [compile_encoder(tp) for tp in types]
            for name, types in handler_type.signals.items()
        }
        self._signal_decoders = {
            name: [compile_decoder(tp) for tp in types]
            for name, types in handler_type.signals.items()
        }
        self._buf: Any = bytearray()

    @classmethod
    def for_type(cls, handler_type: HandlerType) -> "OutcomeCodec":
        """The shared codec for *handler_type* (see ArgsCodec.for_type)."""
        try:
            return handler_type._outcome_codec
        except AttributeError:
            codec = cls(handler_type)
            handler_type._outcome_codec = codec
            return codec

    def encode(self, outcome: Outcome) -> bytes:
        """Encode an outcome per the tagged wire format above."""
        buf = self._buf
        if buf is None:  # re-entrant encode
            buf = bytearray()
        else:
            self._buf = None
            del buf[:]
        try:
            # The slots, not the checking properties (see Outcome).
            exc = outcome._exception
            if exc is None:
                buf.append(_TAG_NORMAL)
                results = outcome._results
                encoders = self._ret_encoders
                if len(results) != len(encoders):
                    raise EncodeError(
                        "value count %d does not match type count %d"
                        % (len(results), len(encoders))
                    )
                for encoder, value in zip(encoders, results):
                    encoder(value, buf)
                return bytes(buf)
            if isinstance(exc, Unavailable):
                buf.append(_TAG_UNAVAILABLE)
                _encode_str(exc.reason, buf)
                return bytes(buf)
            if isinstance(exc, Failure):
                buf.append(_TAG_FAILURE)
                _encode_str(exc.reason, buf)
                return bytes(buf)
            if isinstance(exc, Signal):
                encoders = self._signal_encoders.get(exc.condition)
                if encoders is None:
                    raise EncodeError(
                        "handler raised undeclared exception %r" % (exc.condition,)
                    )
                buf.append(_TAG_SIGNAL)
                _encode_str(exc.condition, buf)
                values = exc.exception_args()
                if len(values) != len(encoders):
                    raise EncodeError(
                        "value count %d does not match type count %d"
                        % (len(values), len(encoders))
                    )
                for encoder, value in zip(encoders, values):
                    encoder(value, buf)
                return bytes(buf)
            raise EncodeError("cannot encode outcome exception %r" % (exc,))
        finally:
            self._buf = buf

    def decode(self, data: Any) -> Outcome:
        """Decode an outcome; undeclared signals raise DecodeError."""
        if not data:
            raise DecodeError("empty outcome payload")
        tag = data[0]
        if tag == _TAG_NORMAL:
            values: list = []
            offset = 1
            for decoder in self._ret_decoders:
                offset = decoder(data, offset, values)
            if offset != len(data):
                # Identical message (and count) to the reference
                # decode_values on the tag-stripped slice.
                raise DecodeError(
                    "%d trailing bytes after decoding" % (len(data) - offset)
                )
            return Outcome.normal(*values)
        if tag == _TAG_UNAVAILABLE:
            scratch: list = []
            offset = _decode_str(data, 1, scratch)
            _expect_consumed(data, offset)
            return Outcome.exceptional(Unavailable(scratch[0]))
        if tag == _TAG_FAILURE:
            scratch = []
            offset = _decode_str(data, 1, scratch)
            _expect_consumed(data, offset)
            return Outcome.exceptional(Failure(scratch[0]))
        if tag == _TAG_SIGNAL:
            scratch = []
            offset = _decode_str(data, 1, scratch)
            name = scratch.pop()
            decoders = self._signal_decoders.get(name)
            if decoders is None:
                raise DecodeError("undeclared exception %r in reply" % (name,))
            for decoder in decoders:
                offset = decoder(data, offset, scratch)
            _expect_consumed(data, offset)
            return Outcome.exceptional(Signal(name, *scratch))
        raise DecodeError("unknown outcome tag %d" % (tag,))


def _expect_consumed(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise DecodeError("%d trailing bytes in outcome" % (len(data) - offset))


def failing_user_type(
    type_name: str = "fragile",
    fail_encode: bool = False,
    fail_decode: bool = False,
) -> UserType:
    """A string-backed abstract type whose codec fails on demand.

    Used by tests and the E9 benchmark to inject the paper's "encoding or
    decoding may fail" events at will: values equal to ``"poison"`` trip the
    selected stage.
    """

    def to_external(value: Any) -> str:
        if fail_encode and value == "poison":
            raise ValueError("injected encode failure")
        return str(value)

    def from_external(text: str) -> str:
        if fail_decode and text == "poison":
            raise ValueError("injected decode failure")
        return text

    return UserType(type_name, STRING, to_external, from_external)
