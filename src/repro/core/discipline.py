"""The BFC egress-port discipline.

This class glues the BFC mechanisms together for one egress port:

* on **enqueue** it looks the packet's flow up in the switch-wide virtual-flow
  table (creating an entry and assigning a physical queue if needed), steers
  marked first packets to the high-priority queue, and applies the pause rule
  of §3.4: if the flow's physical queue now exceeds the pause threshold
  ``Th = (HRTT + tau) * mu / Nactive``, the flow is paused one hop upstream via
  the per-ingress counting Bloom filter;
* on **dequeue** it serves the high-priority queue first and then deficit
  round robin over physical queues whose head is not paused by the most recent
  downstream Bloom filter, reclaims flow-table entries and physical queues
  when a flow's last packet leaves, and applies the resume rule of §3.5
  (at most ``resumes_per_interval`` flows per queue per Bloom interval).

Pause state is incremental, so a packet pays O(1) for it (§3): the port keeps
the set of non-empty queues whose head packet the downstream filter pauses,
touched only when a queue's head changes or a *different* filter arrives, and
Nactive is the number of non-empty queues minus the size of that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.packet import Packet

from .config import BfcConfig
from .pause import PauseThresholds, ResumeList
from .queues import PhysicalQueuePool
from .scheduler import HIGH_PRIORITY_QUEUE, OVERFLOW_QUEUE, BfcScheduler
from .telemetry import ACTIVE_COUNT_KEY, QueueTelemetry
from .vfid import FlowEntry, packet_vfid


@dataclass
class BfcEgressStats:
    """Per-egress-port BFC accounting used by the evaluation figures."""

    enqueued_packets: int = 0
    dequeued_packets: int = 0
    high_priority_packets: int = 0
    overflow_packets: int = 0
    pauses_sent: int = 0
    resumes_sent: int = 0
    max_queue_bytes: int = 0
    max_occupied_queues: int = 0


class BfcEgressDiscipline:
    """Data-plane discipline for one BFC egress port (implements DataDiscipline)."""

    def __init__(
        self,
        agent,
        egress_index: int,
        link_rate_bps: float,
        link_delay_ns: int,
        rng=None,
    ) -> None:
        self.agent = agent
        self.config: BfcConfig = agent.config
        self.egress_index = egress_index
        self.scheduler = BfcScheduler(self.config)
        self.pool = PhysicalQueuePool(self.config, rng=rng)
        self.thresholds = PauseThresholds(self.config, link_rate_bps, link_delay_ns)
        self.resume_lists: Dict[int, ResumeList] = {}
        self.downstream_filter: Optional[bytes] = None
        # The installed filter if it marks any VFID, else None: an all-zero
        # filter pauses nothing and needs no membership tests.
        self._pause_bits: Optional[bytes] = None
        # Non-empty queues (physical or overflow) whose head packet is paused
        # by the downstream filter.  Touched only when a queue's head changes
        # (push into an empty queue, pop) or a different filter is installed.
        self._blocked: Set[int] = set()
        # Flows waiting in any resume list, so an idle tick returns at once.
        self._resumes_pending = 0
        self.stats = BfcEgressStats()
        # Hot-path aliases (stable for the lifetime of the discipline).
        # DataDiscipline.has_backlog is the scheduler's own method, saving a
        # frame on a query the port makes after every transmission.
        self.has_backlog = self.scheduler.has_backlog
        self._nonempty = self.scheduler.nonempty_ids()
        self._flow_table = agent.flow_table
        self._codec = agent.codec
        self._num_vfids = self.config.num_vfids
        self._sim = agent.sim
        # BFC-Est: a stale/sampled occupancy view feeding the pause rule.
        # Only allocated when the estimator knobs are set, so ideal BFC's
        # hot path pays exactly one `is None` test and BFC-Est at
        # staleness 0 / period 0 degenerates to BFC bit for bit.
        if self.config.telemetry_staleness_ns > 0 or self.config.telemetry_sample_period_ns > 0:
            self._telemetry: Optional[QueueTelemetry] = QueueTelemetry(
                self.config.telemetry_staleness_ns,
                self.config.telemetry_sample_period_ns,
            )
        else:
            self._telemetry = None
        agent.register_discipline(self)

    # ------------------------------------------------------------------ enqueue --

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        vfid = packet_vfid(packet, self._num_vfids)
        entry = self._flow_table.lookup_or_insert(
            vfid, ingress, self.egress_index, key=packet.key
        )
        stats = self.stats
        stats.enqueued_packets += 1
        scheduler = self.scheduler
        if entry is None:
            # Neither the hash-table bucket nor the overflow cache had room:
            # divert to the per-egress overflow queue (§3.8).
            scheduler.push_overflow(packet)
            stats.overflow_packets += 1
            self._note_pushed_head(OVERFLOW_QUEUE, packet)
            return True
        # Departure reads the entry from here instead of re-hashing the VFID.
        packet.flow_entry = entry
        entry.packets += 1
        entry.bytes += packet.size
        if self._should_use_high_priority(packet, entry):
            scheduler.push_high_priority(packet)
            stats.high_priority_packets += 1
            return True
        if entry.queue is None:
            entry.queue = self.pool.assign(vfid)
        queue = entry.queue
        queue_bytes = scheduler.push_queue(queue, packet)
        if self._pause_bits is not None:
            self._note_pushed_head(queue, packet)
        if queue_bytes > stats.max_queue_bytes:
            stats.max_queue_bytes = queue_bytes
        occupied = self.pool.occupied_queues()
        if occupied > stats.max_occupied_queues:
            stats.max_occupied_queues = occupied
        if self._telemetry is not None:
            now = self._sim.now
            self._telemetry.record(queue, now, queue_bytes)
            self._telemetry.record(ACTIVE_COUNT_KEY, now, self._raw_active_count())
        self._check_pause(entry, queue_bytes)
        return True

    def _should_use_high_priority(self, packet: Packet, entry: FlowEntry) -> bool:
        """§3.7: first (marked) packet of a flow, nothing else queued, not paused."""
        if not self.config.use_high_priority_queue:
            return False
        return (
            packet.first_of_flow
            and entry.packets == 1
            and not entry.paused_upstream
        )

    def _check_pause(self, entry: FlowEntry, queue_bytes: float) -> None:
        """Pause the arriving packet's flow if its queue exceeds the threshold."""
        if entry.paused_upstream:
            return
        telemetry = self._telemetry
        if telemetry is None:
            # threshold_bytes floors Nactive at 1.
            active = len(self._nonempty) - len(self._blocked)
        else:
            # BFC-Est: the decision sees occupancy as the (stale, sampled)
            # telemetry channel reports it, not as it is right now.
            now = self._sim.now
            queue_bytes = telemetry.read(entry.queue, now)
            active = telemetry.read(ACTIVE_COUNT_KEY, now)
        threshold = self.thresholds.threshold_bytes(active)
        if queue_bytes > threshold:
            if self.agent.pause_flow(entry.vfid, entry.ingress):
                self.stats.pauses_sent += 1
            entry.paused_upstream = True
            # A pause supersedes any pending resume for the same flow.
            if entry.queue is not None and self._resume_list(entry.queue).discard(
                entry.vfid, entry.ingress
            ):
                self._resumes_pending -= 1

    # ------------------------------------------------------------------ dequeue --

    def dequeue(self) -> Optional[Packet]:
        scheduler = self.scheduler
        result = scheduler.pop(self._blocked)
        if result is None:
            return None
        packet, source_queue = result
        self.stats.dequeued_packets += 1
        bits = self._pause_bits
        if bits is not None and source_queue != HIGH_PRIORITY_QUEUE:
            # The served queue was not blocked; its new head may be.
            head = scheduler.head_packet(source_queue)
            if head is not None and self._codec.contains(bits, head.vfid):
                self._blocked.add(source_queue)
        if self._telemetry is not None:
            # Record before the resume check reads: a sample taken exactly at
            # this instant reflects the state after this departure.
            now = self._sim.now
            if source_queue >= 0:
                self._telemetry.record(
                    source_queue, now, self.scheduler.queue_bytes(source_queue)
                )
            self._telemetry.record(ACTIVE_COUNT_KEY, now, self._raw_active_count())
        self._handle_departure(packet, source_queue)
        return packet

    def _note_pushed_head(self, qid: int, packet: Packet) -> None:
        """Block ``qid`` if ``packet`` just became its head and is paused."""
        bits = self._pause_bits
        if (
            bits is not None
            and self.scheduler.head_packet(qid) is packet
            and self._codec.contains(bits, packet.vfid)
        ):
            self._blocked.add(qid)

    def _handle_departure(self, packet: Packet, source_queue: int) -> None:
        entry = packet.flow_entry
        if entry is None:
            # Overflow-queue packets belong to flows without a table entry.
            return
        # The handle is switch state: it must not leave with the packet.
        packet.flow_entry = None
        entry.packets -= 1
        entry.bytes -= packet.size
        self._check_resume(entry, source_queue)
        if entry.packets <= 0:
            self._reclaim(entry)

    def _check_resume(self, entry: FlowEntry, source_queue: int) -> None:
        """§3.5: consider resuming a paused flow when its queue drains below Th."""
        if not entry.paused_upstream:
            return
        telemetry = self._telemetry
        queue = entry.queue if entry.queue is not None else source_queue
        if queue in (HIGH_PRIORITY_QUEUE, OVERFLOW_QUEUE) or queue is None:
            queue_bytes = 0
            queue = 0
        elif telemetry is not None:
            queue_bytes = telemetry.read(queue, self._sim.now)
        else:
            queue_bytes = self.scheduler.queue_bytes(queue)
        if telemetry is None:
            # threshold_bytes floors Nactive at 1.
            active = len(self._nonempty) - len(self._blocked)
        else:
            active = telemetry.read(ACTIVE_COUNT_KEY, self._sim.now)
        threshold = self.thresholds.threshold_bytes(active)
        if queue_bytes > threshold:
            return
        if self.config.limit_resume_rate:
            self._queue_resume(queue, entry)
            entry.resume_pending = True
        else:
            # BFC-BufferOpt ablation: resume immediately, without rate limiting.
            if self.agent.resume_flow(entry.vfid, entry.ingress):
                self.stats.resumes_sent += 1
            entry.paused_upstream = False

    def _reclaim(self, entry: FlowEntry) -> None:
        """The flow's last packet left this switch: release queue and table entry."""
        if entry.paused_upstream and not entry.resume_pending:
            # The pause state must not leak once the table entry is gone;
            # queue it for the (rate-limited) resume path.
            self._queue_resume(entry.queue if entry.queue is not None else 0, entry)
        if entry.queue is not None:
            self.pool.release(entry.queue)
            entry.queue = None
        self._flow_table.remove(entry)

    # ------------------------------------------------------------------ resumes --

    def _resume_list(self, queue: int) -> ResumeList:
        lst = self.resume_lists.get(queue)
        if lst is None:
            lst = ResumeList()
            self.resume_lists[queue] = lst
        return lst

    def _queue_resume(self, queue: int, entry: FlowEntry) -> None:
        if self._resume_list(queue).add(entry.vfid, entry.ingress):
            self._resumes_pending += 1

    def collect_resumes(self) -> List[Tuple[int, int]]:
        """Pop up to ``resumes_per_interval`` flows per queue to unpause now.

        Called by the BFC agent once per Bloom-filter interval (tau); the
        returned ``(vfid, ingress)`` pairs are removed from the counting Bloom
        filters, which resumes them at the upstream hop.
        """
        if not self._resumes_pending:
            return []
        resumed: List[Tuple[int, int]] = []
        for lst in self.resume_lists.values():
            if not lst:
                continue  # lists persist after draining; skip the empty ones
            for _ in range(self.config.resumes_per_interval):
                item = lst.pop()
                if item is None:
                    break
                resumed.append(item)
        self._resumes_pending -= len(resumed)
        for vfid, ingress in resumed:
            entry = self._flow_table.lookup(vfid, ingress, self.egress_index)
            if entry is not None:
                entry.paused_upstream = False
                entry.resume_pending = False
            self.stats.resumes_sent += 1
        return resumed

    # ------------------------------------------------------------------ queries --

    def _raw_active_count(self) -> int:
        """Non-empty queues whose head is not paused downstream (no floor)."""
        return len(self._nonempty) - len(self._blocked)

    def active_queue_count(self) -> int:
        """Nactive: non-empty queues whose head is not paused downstream."""
        count = self._raw_active_count()
        return count if count > 1 else 1

    def apply_downstream_filter(self, bitmap: Optional[bytes]) -> None:
        """Install the most recent Bloom filter received from the next hop.

        The next hop re-sends an unchanged filter every Bloom interval; only
        a different one re-tests the heads of the non-empty queues.
        """
        if bitmap != self.downstream_filter:
            self.downstream_filter = bitmap
            bits = bitmap if bitmap and any(bitmap) else None
            self._pause_bits = bits
            blocked = self._blocked
            blocked.clear()
            if bits is not None:
                head_packet = self.scheduler.head_packet
                contains = self._codec.contains
                for qid in self._nonempty:
                    if contains(bits, head_packet(qid).vfid):
                        blocked.add(qid)
        if self._telemetry is not None:
            # Eligibility may have changed under every queue: the active count
            # is a new change point even though no packet moved.  Recorded on
            # unchanged frames too (a no-op unless an overflow-queue push
            # moved the count without recording it).
            self._telemetry.record(
                ACTIVE_COUNT_KEY, self._sim.now, self._raw_active_count()
            )

    def occupied_physical_queues(self) -> int:
        return self.pool.occupied_queues()

    def per_queue_bytes(self) -> List[int]:
        return self.scheduler.per_queue_bytes()

    # -- DataDiscipline interface ----------------------------------------------------

    def backlog_bytes(self) -> int:
        return self.scheduler.backlog_bytes()

    def backlog_packets(self) -> int:
        return self.scheduler.backlog_packets()
