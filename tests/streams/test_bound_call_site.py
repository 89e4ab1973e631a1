"""A handler ref binds its call site once.

A ref computes its stream key when it is made and looks its sender up
by that key on every call; a handler type derives its promise type once.
These tests check that what is bound once stays correct: across a crash
of the ref's own guardian, an abandoned agent, sends, the rt frame codec,
and the memoised promise type.
"""

import pytest

from repro.core.exceptions import Unavailable
from repro.streams.frames import decode_body, encode_packet
from repro.streams.wire import KIND_SEND, CallPacket, StreamKey
from repro.types import PromiseType

from .helpers import ECHO_TYPE, build_echo_world, run_main


def _stream_all(ref, values):
    """Stream *values* through *ref*, flush, and claim each in order."""
    promises = [ref.stream(value) for value in values]
    ref.flush()
    results = []
    for promise in promises:
        results.append((yield promise.claim()))
    return results


def test_ref_gets_a_fresh_sender_after_its_guardian_crashes():
    system, server, client = build_echo_world()
    ref = client.bind(server.descriptor("echo"))

    def before(ctx):
        return (yield from _stream_all(ref, [1, 2, 3]))

    assert run_main(system, client, before) == [1, 2, 3]
    forgotten = ref.stream_sender
    client.node.crash()
    assert client.endpoint._senders == {}
    client.node.recover()

    def after(ctx):
        return (yield from _stream_all(ref, [10, 20, 30, 40]))

    results = run_main(system, client, after)
    fresh = ref.stream_sender
    assert fresh is not forgotten
    assert fresh.key == forgotten.key
    assert client.endpoint._senders == {fresh.key: fresh}
    # Every call completes normally on the fresh sender.
    assert len(results) == 4
    assert fresh.stats.calls_made == 4
    assert forgotten.stats.calls_made == 3


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the fresh sender restarts at incarnation 0, seq 1, "
    "so the server's receiver for the same key answers seqs 1-3 from its "
    "old reply log",
)
def test_calls_after_a_sender_crash_are_not_answered_from_the_old_stream():
    system, server, client = build_echo_world()
    ref = client.bind(server.descriptor("echo"))

    def before(ctx):
        return (yield from _stream_all(ref, [1, 2, 3]))

    run_main(system, client, before)
    client.node.crash()
    client.node.recover()

    def after(ctx):
        return (yield from _stream_all(ref, [10, 20, 30, 40]))

    assert run_main(system, client, after) == [10, 20, 30, 40]


def test_abandon_agent_restarts_the_refs_stream():
    system, server, client = build_echo_world()
    agent = client.new_agent()
    ref = client.bind(server.descriptor("echo"), agent)
    outcomes = []

    def main(ctx):
        doomed = ref.stream(1)  # buffered, so the stream has work in flight
        client.endpoint.abandon_agent(agent)
        try:
            yield doomed.claim()
            outcomes.append("normal")
        except Unavailable:
            outcomes.append("unavailable")
        outcomes.append((yield ref.call(2)))

    run_main(system, client, main)
    assert outcomes == ["unavailable", 2]
    assert ref.stream_sender.incarnation == 1
    assert ref.stream_sender.stats.breaks == 1


def test_stream_statement_without_results_travels_as_a_send():
    system, server, client = build_echo_world()
    note = client.bind(server.descriptor("note"))
    assert not note.handler_type.has_results

    def main(ctx):
        note.stream_statement("hello")
        assert [entry.kind for entry in note.stream_sender._buffer] == [KIND_SEND]
        yield note.synch()

    run_main(system, client, main)
    assert note.stream_sender.stats.sends_made == 1
    assert server.state["notes"] == ["hello"]


def test_key_decoded_from_an_rt_frame_finds_the_sender():
    system, server, client = build_echo_world()
    ref = client.bind(server.descriptor("echo"))
    key = ref.stream_sender.key
    decoded = decode_body(encode_packet(CallPacket(key, 0, [], 0))).key
    assert decoded == key
    assert hash(decoded) == hash(key)
    assert client.endpoint._senders[decoded] is ref.stream_sender


def test_stream_key_bytes_on_the_wire_are_unchanged():
    key = StreamKey(
        src_node="node:client",
        src_address="g:client",
        agent_id="client/7",
        dst_node="node:server",
        dst_address="g:server",
        group_id="main",
    )
    body = encode_packet(CallPacket(key, 2, [], ack_reply_seq=5))
    # Six length-prefixed UTF-8 strings in field order, as before keys
    # became tuples.
    assert body.hex() == (
        "01"
        "0000000b6e6f64653a636c69656e74"
        "00000008673a636c69656e74"
        "00000008636c69656e742f37"
        "0000000b6e6f64653a736572766572"
        "00000008673a736572766572"
        "000000046d61696e"
        "00000002"
        "0000000000000005"
        "000000000000000000"
    )


def test_stream_key_fields_cannot_be_assigned():
    system, server, client = build_echo_world()
    key = client.bind(server.descriptor("echo")).stream_sender.key
    with pytest.raises(AttributeError):
        key.agent_id = "someone-else"
    assert client.endpoint._senders[key].key is key


def test_memoised_promise_type_equals_a_fresh_derivation():
    memo = ECHO_TYPE.promise_type()
    assert memo == PromiseType(returns=ECHO_TYPE.returns, signals=ECHO_TYPE.signals)
    assert ECHO_TYPE.promise_type() is memo
    system, server, client = build_echo_world()
    ref = client.bind(server.descriptor("echo"))

    def main(ctx):
        promise = ref.stream(5)
        assert promise.ptype is ref.handler_type.promise_type()
        ref.flush()
        return (yield promise.claim())

    assert run_main(system, client, main) == 5
