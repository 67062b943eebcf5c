"""Property tests (hypothesis) for BFC's incremental pause state.

The egress discipline keeps the set of non-empty queues whose head packet is
paused downstream, and Nactive as a difference of set sizes; the BFC NIC
keeps ``SenderFlowState.paused`` in step with its pause filter.  Both are
updated only on head changes and on *different* filters, so these tests
drive random operation sequences and compare after every step against a
brute-force oracle: the per-queue scan the discipline used to run on every
decision, kept here as the executable specification.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilterCodec
from repro.core.config import BfcConfig
from repro.core.discipline import BfcEgressDiscipline
from repro.core.nic import bfc_nic_class
from repro.core.switchlogic import BfcAgent
from repro.core.vfid import packet_vfid
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.flow import Flow
from repro.sim.host import Host, HostConfig, SenderFlowState
from repro.sim.packet import FlowKey, Packet, PacketKind

LINK_RATE = units.gbps(10)

# A small table (one entry per bucket, no overflow cache) over a small VFID
# space sends colliding flows to the overflow queue; two physical queues
# make flows share queues, so a queue's head changes flow as it drains.
CONFIG = BfcConfig(
    hop_rtt_ns=2_000,
    num_physical_queues=2,
    num_vfids=16,
    table_bucket_size=1,
    overflow_cache_entries=0,
    bloom_filter_bytes=4,
    bloom_hash_functions=2,
)
NUM_FLOWS = 12


def flow_key(flow: int) -> FlowKey:
    return FlowKey(src=flow, dst=99, src_port=flow, dst_port=4791)


def make_packet(flow: int, seq: int, size: int, first: bool, ingress: int) -> Packet:
    packet = Packet(
        kind=PacketKind.DATA,
        flow_id=flow,
        key=flow_key(flow),
        size=size,
        seq=seq,
        first_of_flow=first,
    )
    packet.cur_ingress = ingress
    return packet


def build_discipline() -> BfcEgressDiscipline:
    sim = Simulator(seed=1)
    agent = BfcAgent(sim, CONFIG)
    return BfcEgressDiscipline(
        agent, egress_index=0, link_rate_bps=LINK_RATE, link_delay_ns=1_000,
        rng=sim.rng(7),
    )


# -- the oracle: the per-decision scan the discipline no longer runs ------------


def queue_eligible(discipline: BfcEgressDiscipline, qid: int) -> bool:
    """A queue may be served unless its head packet is paused downstream."""
    filt = discipline.downstream_filter
    if filt is None:
        return True
    head = discipline.scheduler.head_packet(qid)
    if head is None:
        return False
    vfid = packet_vfid(head, discipline.config.num_vfids)
    return not discipline.agent.codec.contains(filt, vfid)


def scanned_blocked(discipline: BfcEgressDiscipline) -> set:
    return {
        qid
        for qid in discipline.scheduler.nonempty_ids()
        if not queue_eligible(discipline, qid)
    }


def scanned_active_count(discipline: BfcEgressDiscipline) -> int:
    nonempty = discipline.scheduler.nonempty_ids()
    count = sum(1 for qid in nonempty if queue_eligible(discipline, qid))
    return count if count > 1 else 1


class _IneligibleQueues:
    """The old per-queue predicate, in the container form ``pop`` takes.

    Its length reads 0, so ``pop`` never takes its every-queue-blocked
    shortcut: the reference always runs the full DRR scan.
    """

    def __init__(self, discipline: BfcEgressDiscipline) -> None:
        self.discipline = discipline

    def __contains__(self, qid: int) -> bool:
        return not queue_eligible(self.discipline, qid)

    def __len__(self) -> int:
        return 0


def use_reference_pop(discipline: BfcEgressDiscipline) -> None:
    """Make ``dequeue`` ignore the maintained set and ask the predicate."""
    pop = discipline.scheduler.pop
    ineligible = _IneligibleQueues(discipline)
    discipline.scheduler.pop = lambda blocked: pop(ineligible)


# -- operation sequences -----------------------------------------------------------

# A filter is absent, all zero, a re-send of the current one, or pauses a
# few flows (drawn three times as often as each of the others).
FILTER_CHOICES = st.one_of(
    st.sampled_from([("none",), ("zero",), ("same",)]),
    st.tuples(st.just("flows"), st.sets(st.sampled_from(range(NUM_FLOWS)), max_size=6)),
    st.tuples(st.just("flows"), st.sets(st.sampled_from(range(NUM_FLOWS)), max_size=6)),
    st.tuples(st.just("flows"), st.sets(st.sampled_from(range(NUM_FLOWS)), max_size=6)),
)

@st.composite
def operation(draw):
    # Four pushes and four pops to each filter change and resume tick, so
    # queues fill with several flows before the filter moves under them.
    roll = draw(st.integers(0, 9))
    if roll < 4:
        flow = draw(st.sampled_from(range(NUM_FLOWS)))
        return ("push", flow, draw(st.sampled_from([1_048, 64])), draw(st.booleans()))
    if roll < 8:
        return ("pop",)
    if roll < 9:
        return ("filter", draw(FILTER_CHOICES))
    return ("resumes",)


OPERATIONS = st.lists(operation(), min_size=40, max_size=120)


def filter_bitmap(choice, current, codec: BloomFilterCodec):
    kind = choice[0]
    if kind == "none":
        return None
    if kind == "zero":
        return codec.empty_bitmap()
    if kind == "same":
        return None if current is None else bytes(current)  # equal, not identical
    return codec.encode(flow_key(f).vfid(CONFIG.num_vfids) for f in choice[1])


class Driver:
    """Applies one operation sequence to a discipline, logging what it sends."""

    def __init__(self, discipline: BfcEgressDiscipline) -> None:
        self.discipline = discipline
        self.seqs = [0] * NUM_FLOWS
        self.log = []

    def apply(self, op) -> None:
        d = self.discipline
        if op[0] == "push":
            _, flow, size, first = op
            seq = self.seqs[flow]
            self.seqs[flow] += 1
            d.enqueue(make_packet(flow, seq, size, first, ingress=flow % 3), flow % 3)
        elif op[0] == "pop":
            packet = d.dequeue()
            if packet is None:
                self.log.append(None)
            else:
                # The flow-table handle is switch state and must not leave.
                assert packet.flow_entry is None
                self.log.append((packet.flow_id, packet.seq))
        elif op[0] == "filter":
            bitmap = filter_bitmap(op[1], d.downstream_filter, d.agent.codec)
            d.apply_downstream_filter(bitmap)
        else:
            self.log.append(tuple(d.collect_resumes()))


def assert_matches_oracle(d: BfcEgressDiscipline) -> None:
    assert d._blocked == scanned_blocked(d)
    assert d.active_queue_count() == scanned_active_count(d)
    assert d._blocked <= d.scheduler.nonempty_ids()
    assert d._resumes_pending == sum(len(lst) for lst in d.resume_lists.values())


@settings(max_examples=150, deadline=None)
@given(ops=OPERATIONS)
def test_blocked_set_and_nactive_match_the_scan(ops):
    driver = Driver(build_discipline())
    for op in ops:
        driver.apply(op)
        assert_matches_oracle(driver.discipline)


@settings(max_examples=150, deadline=None)
@given(ops=OPERATIONS)
def test_dequeue_order_matches_the_predicate_reference(ops):
    incremental = Driver(build_discipline())
    reference = Driver(build_discipline())
    use_reference_pop(reference.discipline)
    for op in ops:
        incremental.apply(op)
        reference.apply(op)
    # Drain both, so every queued packet's departure is compared.
    for _ in range(len(ops) + 1):
        incremental.apply(("pop",))
        reference.apply(("pop",))
    assert incremental.log == reference.log
    assert incremental.discipline.stats == reference.discipline.stats
    assert (
        incremental.discipline.agent.paused_flow_count()
        == reference.discipline.agent.paused_flow_count()
    )


def test_queues_under_an_all_zero_filter_stay_unblocked():
    d = build_discipline()
    for flow in range(4):
        d.enqueue(make_packet(flow, 0, 1_048, False, ingress=0), 0)
    d.apply_downstream_filter(d.agent.codec.empty_bitmap())
    assert d._blocked == set()
    assert d.active_queue_count() == scanned_active_count(d)


# -- the NIC ------------------------------------------------------------------------

NIC_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, NUM_FLOWS - 1)),
        st.tuples(st.just("remove"), st.integers(0, NUM_FLOWS - 1)),
        st.tuples(st.just("bloom"), FILTER_CHOICES),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=NIC_OPERATIONS)
def test_nic_paused_flag_matches_the_filter(ops):
    sim = Simulator(seed=1)
    host = Host(
        sim, "h0", host_id=0, config=HostConfig(mtu=1_000),
        nic_class=bfc_nic_class(CONFIG),
    )
    nic = host.nic
    codec = nic.codec
    flow_ids = {}
    for op in ops:
        if op[0] == "add":
            flow = Flow(src=0, dst=5, size=4_000, start_ns=0, src_port=op[1])
            nic.add_flow(SenderFlowState(flow, mtu=1_000))
            flow_ids[flow.flow_id] = flow
        elif op[0] == "remove" and flow_ids:
            nic.remove_flow(sorted(flow_ids)[op[1] % len(flow_ids)])
        elif op[0] == "bloom":
            bitmap = filter_bitmap(op[1], nic.pause_filter, codec)
            nic.on_bloom(
                Packet(
                    kind=PacketKind.BLOOM, flow_id=0, key=FlowKey(-2, -2, 0, 0),
                    size=codec.size_bytes + 18, bloom_bits=bitmap,
                )
            )
        for fstate in nic._flows.values():
            vfid = fstate.key.vfid(CONFIG.num_vfids)
            assert fstate.paused == codec.contains(nic.pause_filter, vfid)
        assert nic.paused_flow_count() == sum(
            codec.contains(nic.pause_filter, f.key.vfid(CONFIG.num_vfids))
            for f in nic._flows.values()
        )
