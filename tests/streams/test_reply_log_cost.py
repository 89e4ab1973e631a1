"""Pruning the receiver's reply log costs work per pruned entry, not per
logged entry.

Every call packet carries the sender's reply acknowledgement, and the
receiver drops the acknowledged replies from its log.  The log is kept in
seq order, so pruning pops from the front and stops at the first
unacknowledged reply; rescanning the whole log on every packet made a long
log quadratic.  The test counts comparisons against the ack, not time.
"""

from repro.streams.wire import CallPacket, ReplyEntry

from .helpers import build_echo_world, run_main

LOG_SIZE = 2000


class CountingSeq(int):
    """An ack seq that counts how often it is compared with a reply seq.

    ``seq < ack`` and the like call the reflected method of ``ack`` first,
    because this type subclasses ``int``.
    """

    comparisons = 0

    def _count(method):
        def compare(self, other):
            CountingSeq.comparisons += 1
            return method(self, other)

        return compare

    __lt__ = _count(int.__lt__)
    __le__ = _count(int.__le__)
    __gt__ = _count(int.__gt__)
    __ge__ = _count(int.__ge__)
    del _count


def test_reply_log_prune_is_linear_in_pruned_entries():
    system, server, client = build_echo_world()

    def main(ctx):
        yield ctx.lookup("server", "echo").call(1)

    run_main(system, client, main)
    (receiver,) = server.endpoint._receivers.values()
    # The sender has not acknowledged the reply to call 1 yet; log
    # LOG_SIZE more replies behind it.
    assert [entry.seq for entry in receiver._reply_log] == [1]
    receiver._reply_log.extend(ReplyEntry(seq, b"") for seq in range(2, LOG_SIZE + 1))

    CountingSeq.comparisons = 0
    for ack in range(1, LOG_SIZE + 1):
        receiver.on_call_packet(
            CallPacket(receiver.key, receiver.incarnation, [], CountingSeq(ack))
        )
        assert len(receiver._reply_log) == LOG_SIZE - ack
    # One successful comparison per pruned entry plus one that stops the
    # scan on each packet: 2n, where a full rescan costs n^2 / 2.
    assert CountingSeq.comparisons <= 2 * LOG_SIZE
