"""Unit tests for the BFC egress scheduler (high-priority queue + DRR)."""

from repro.core.config import BfcConfig
from repro.core.scheduler import HIGH_PRIORITY_QUEUE, OVERFLOW_QUEUE, BfcScheduler
from repro.sim.packet import FlowKey, Packet, PacketKind


def make_packet(flow_id=1, size=1_000, first=False):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=flow_id, dst=99, src_port=flow_id, dst_port=4791),
        size=size,
        first_of_flow=first,
    )


#: No queue is blocked by a downstream pause.
NONE_BLOCKED = frozenset()


class TestStorage:
    def test_push_and_pop_single_queue(self):
        sched = BfcScheduler(BfcConfig())
        packet = make_packet()
        sched.push_queue(3, packet)
        assert sched.queue_bytes(3) == 1_000
        assert sched.backlog_packets() == 1
        popped, source = sched.pop(NONE_BLOCKED)
        assert popped is packet
        assert source == 3
        assert sched.backlog_packets() == 0
        assert sched.queue_bytes(3) == 0

    def test_pop_empty_returns_none(self):
        sched = BfcScheduler(BfcConfig())
        assert sched.pop(NONE_BLOCKED) is None

    def test_head_packet_inspection(self):
        sched = BfcScheduler(BfcConfig())
        first = make_packet(flow_id=1)
        second = make_packet(flow_id=2)
        sched.push_queue(0, first)
        sched.push_queue(0, second)
        assert sched.head_packet(0) is first
        assert sched.head_packet(1) is None

    def test_per_queue_bytes_snapshot(self):
        sched = BfcScheduler(BfcConfig(num_physical_queues=4))
        sched.push_queue(1, make_packet(size=500))
        sched.push_queue(2, make_packet(size=700))
        assert sched.per_queue_bytes() == [0, 500, 700, 0]

    def test_nonempty_queue_listing(self):
        sched = BfcScheduler(BfcConfig(num_physical_queues=4))
        sched.push_queue(2, make_packet())
        sched.push_overflow(make_packet())
        assert set(sched.nonempty_queues()) == {2, OVERFLOW_QUEUE}


class TestPriorities:
    def test_high_priority_served_first(self):
        sched = BfcScheduler(BfcConfig())
        regular = make_packet(flow_id=1)
        priority = make_packet(flow_id=2, first=True)
        sched.push_queue(0, regular)
        sched.push_high_priority(priority)
        popped, source = sched.pop(NONE_BLOCKED)
        assert popped is priority
        assert source == HIGH_PRIORITY_QUEUE

    def test_high_priority_ignores_eligibility(self):
        sched = BfcScheduler(BfcConfig())
        sched.push_high_priority(make_packet(first=True))
        every_queue = set(range(sched.num_queues)) | {OVERFLOW_QUEUE}
        popped, source = sched.pop(every_queue)
        assert source == HIGH_PRIORITY_QUEUE

    def test_overflow_queue_scheduled_like_normal_queue(self):
        sched = BfcScheduler(BfcConfig())
        sched.push_overflow(make_packet(flow_id=1))
        sched.push_queue(0, make_packet(flow_id=2))
        sources = {sched.pop(NONE_BLOCKED)[1] for _ in range(2)}
        assert sources == {OVERFLOW_QUEUE, 0}

    def test_paused_queue_skipped(self):
        sched = BfcScheduler(BfcConfig())
        sched.push_queue(0, make_packet(flow_id=1))
        sched.push_queue(1, make_packet(flow_id=2))
        popped, source = sched.pop({0})
        assert source == 1
        assert sched.pop({0}) is None

    def test_round_robin_across_queues(self):
        sched = BfcScheduler(BfcConfig())
        for _ in range(3):
            sched.push_queue(0, make_packet(flow_id=1))
            sched.push_queue(1, make_packet(flow_id=2))
        order = [sched.pop(NONE_BLOCKED)[1] for _ in range(6)]
        assert order.count(0) == 3 and order.count(1) == 3
        assert order[:4] != [0, 0, 0, 1]  # interleaved, not strict

    def test_accounting_across_queue_types(self):
        sched = BfcScheduler(BfcConfig())
        sched.push_high_priority(make_packet(size=100, first=True))
        sched.push_queue(0, make_packet(size=200))
        sched.push_overflow(make_packet(size=300))
        assert sched.backlog_bytes() == 600
        assert sched.backlog_packets() == 3
        assert sched.queue_bytes(HIGH_PRIORITY_QUEUE) == 100
        assert sched.queue_bytes(OVERFLOW_QUEUE) == 300
        while sched.pop(NONE_BLOCKED) is not None:
            pass
        assert sched.backlog_bytes() == 0
