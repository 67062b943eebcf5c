"""The BFC egress scheduler: packet storage and service order (§3.3, §3.7).

Service order at a BFC egress port is:

1. the **high-priority queue** holding the (marked) first packet of new flows
   — strict priority, never paused;
2. **deficit round robin** over the physical queues whose head packet is not
   currently paused by the downstream Bloom filter, plus the **overflow
   queue** (packets whose flow could not get a hash-table entry), which is
   scheduled like a normal physical queue.

The scheduler only stores packets and picks the next one; pause/resume policy
lives in :mod:`repro.core.discipline`, which hands :meth:`BfcScheduler.pop` the
set of queues whose head is paused downstream.  The set of non-empty queues is
maintained incrementally on push/pop, so the active-queue count of the pause
threshold is a difference of two set sizes rather than a scan.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Deque, List, Optional, Set, Tuple

from repro.sim.disciplines import DeficitRoundRobin
from repro.sim.packet import Packet

from .config import BfcConfig

#: Pseudo queue identifier for the per-egress overflow queue.
OVERFLOW_QUEUE = -2
#: Pseudo queue identifier for the high-priority queue.
HIGH_PRIORITY_QUEUE = -1


class BfcScheduler:
    """Packet storage and DRR service for one BFC egress port."""

    def __init__(self, config: BfcConfig) -> None:
        self.config = config
        self.num_queues = config.num_physical_queues
        self._queues: List[Deque[Packet]] = [deque() for _ in range(self.num_queues)]
        self._queue_bytes: List[int] = [0] * self.num_queues
        self._high_priority: Deque[Packet] = deque()
        self._high_priority_bytes = 0
        self._overflow: Deque[Packet] = deque()
        self._overflow_bytes = 0
        self._total_bytes = 0
        self._total_packets = 0
        # Physical queues (and the overflow pseudo-queue) currently holding
        # packets; excludes the high-priority queue, like nonempty_queues().
        self._nonempty: Set[int] = set()
        self._drr = DeficitRoundRobin(quantum=config.mtu + 48)

    # -- enqueue -----------------------------------------------------------------

    def push_high_priority(self, packet: Packet) -> None:
        self._high_priority.append(packet)
        self._high_priority_bytes += packet.size
        self._total_bytes += packet.size
        self._total_packets += 1

    def push_queue(self, queue: int, packet: Packet) -> int:
        """Append ``packet`` to physical queue ``queue``; returns its new byte count."""
        self._queues[queue].append(packet)
        queue_bytes = self._queue_bytes[queue] + packet.size
        self._queue_bytes[queue] = queue_bytes
        self._nonempty.add(queue)
        self._drr.activate(queue)
        self._total_bytes += packet.size
        self._total_packets += 1
        return queue_bytes

    def push_overflow(self, packet: Packet) -> None:
        self._overflow.append(packet)
        self._overflow_bytes += packet.size
        self._nonempty.add(OVERFLOW_QUEUE)
        self._drr.activate(OVERFLOW_QUEUE)
        self._total_bytes += packet.size
        self._total_packets += 1

    # -- dequeue ------------------------------------------------------------------

    def pop(self, blocked: Container[int]) -> Optional[Tuple[Packet, int]]:
        """Pick the next packet to send.

        ``blocked`` holds the non-empty (physical or overflow) queues that
        may not be served right now — the discipline keeps it as the set of
        queues whose head packet is paused by the downstream Bloom filter.
        Returns ``(packet, source_queue)`` or ``None``.
        """
        if self._high_priority:
            packet = self._high_priority.popleft()
            self._high_priority_bytes -= packet.size
            self._total_bytes -= packet.size
            self._total_packets -= 1
            return packet, HIGH_PRIORITY_QUEUE
        # Inlined DeficitRoundRobin.select with the head-size callback
        # merged: pop runs once per transmitted packet, and the callback
        # hops of the generic DRR are the dominant cost at that rate.  The
        # selection arithmetic must stay exactly equivalent to
        # ``self._drr.select(self._head_size, eligible=lambda q: q not in blocked)``
        # (the DRR state is shared and must evolve identically).
        drr = self._drr
        active = drr._active
        if not active:
            drr._current = None
            return None
        if len(blocked) == len(active):
            # Every backlogged queue is blocked (the active list holds exactly
            # the non-empty queues, and ``blocked`` only non-empty ones).  The
            # scan below would visit 2n+1 queues, serve none and keep every
            # deficit: its only effects are these two.
            drr._current = None
            drr._cursor = (drr._cursor % len(active) + 1) % len(active)
            return None
        deficits = drr._deficits
        queues = self._queues
        visited = 0
        limit = 2 * len(active) + 1
        qid = drr._current
        arriving = False
        while True:
            if qid is None:
                if visited >= limit:
                    return None
                visited += 1
                cursor = drr._cursor % len(active)
                qid = active[cursor]
                drr._cursor = (cursor + 1) % len(active)
                arriving = True
            queue = self._overflow if qid == OVERFLOW_QUEUE else queues[qid]
            size = queue[0].size if queue else None
            servable = size is not None and qid not in blocked
            if arriving:
                arriving = False
                if not servable:
                    qid = None
                    continue
                # Arriving at a backlogged, eligible queue: grant its quantum
                # and start serving it.
                deficits[qid] += drr.quantum
                drr._current = qid
            if servable and deficits[qid] >= size:
                deficits[qid] -= size
                packet = queue.popleft()
                if qid == OVERFLOW_QUEUE:
                    self._overflow_bytes -= packet.size
                else:
                    self._queue_bytes[qid] -= packet.size
                if not queue:
                    self._nonempty.discard(qid)
                    drr.deactivate(qid)
                self._total_bytes -= packet.size
                self._total_packets -= 1
                return packet, qid
            # This queue's turn is over: empty queues forfeit their deficit,
            # blocked/backlogged queues keep the remainder.
            if size is None:
                deficits[qid] = 0
            drr._current = None
            qid = None

    def _head_size(self, qid: int) -> Optional[int]:
        if qid == OVERFLOW_QUEUE:
            return self._overflow[0].size if self._overflow else None
        queue = self._queues[qid]
        return queue[0].size if queue else None

    # -- introspection ---------------------------------------------------------------

    def head_packet(self, qid: int) -> Optional[Packet]:
        if qid == OVERFLOW_QUEUE:
            return self._overflow[0] if self._overflow else None
        if qid == HIGH_PRIORITY_QUEUE:
            return self._high_priority[0] if self._high_priority else None
        queue = self._queues[qid]
        return queue[0] if queue else None

    def queue_bytes(self, qid: int) -> int:
        if qid == OVERFLOW_QUEUE:
            return self._overflow_bytes
        if qid == HIGH_PRIORITY_QUEUE:
            return self._high_priority_bytes
        return self._queue_bytes[qid]

    def queue_packets(self, qid: int) -> int:
        if qid == OVERFLOW_QUEUE:
            return len(self._overflow)
        if qid == HIGH_PRIORITY_QUEUE:
            return len(self._high_priority)
        return len(self._queues[qid])

    def nonempty_ids(self) -> Set[int]:
        """Live view of the non-empty queue ids (do not mutate)."""
        return self._nonempty

    def nonempty_queues(self) -> List[int]:
        """Physical queues (and the overflow queue) that hold packets."""
        result = sorted(qid for qid in self._nonempty if qid != OVERFLOW_QUEUE)
        if OVERFLOW_QUEUE in self._nonempty:
            result.append(OVERFLOW_QUEUE)
        return result

    def per_queue_bytes(self) -> List[int]:
        return list(self._queue_bytes)

    def backlog_bytes(self) -> int:
        return self._total_bytes

    def backlog_packets(self) -> int:
        return self._total_packets

    def has_backlog(self) -> bool:
        return self._total_packets > 0
