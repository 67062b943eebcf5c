"""Virtual flow IDs and the per-switch virtual-flow hash table.

BFC identifies flows by a hash of the 5-tuple (the *VFID*, §3.3) and keeps
state only for flows that currently have packets queued at the switch.  The
state lives in a bucketised hash table indexed by the VFID itself (§3.8): the
number of buckets equals the VFID space so the key does not need to be
stored, each bucket holds up to four entries, and an entry additionally
records the flow's ingress and egress so that different flows colliding on
the same VFID can usually be disambiguated.  When a bucket fills up, a small
associative overflow cache ("overflow TCAM") absorbs the extra flows; if that
also fills, packets are diverted to a per-egress overflow queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.packet import FlowKey, Packet

from .config import BfcConfig


def packet_vfid(packet: Packet, space: int) -> int:
    """The VFID of a packet, cached on the packet for the given VFID space."""
    if packet.vfid >= 0 and packet.vfid_space == space:
        return packet.vfid
    # Equivalent to packet.key.vfid(space); reads the key's precomputed
    # digest directly to keep this (very hot) helper to two attribute loads.
    vfid = packet.key._digest % space
    packet.vfid = vfid
    packet.vfid_space = space
    return vfid


@dataclass
class FlowEntry:
    """Per-active-flow switch state (§3.3: queue, pause flag, packet count)."""

    vfid: int
    ingress: int
    egress: int
    queue: Optional[int] = None
    packets: int = 0
    bytes: int = 0
    paused_upstream: bool = False
    resume_pending: bool = False
    in_overflow_cache: bool = False
    current_key: Optional[FlowKey] = None

    def is_idle(self) -> bool:
        return self.packets == 0

    def identity(self) -> Tuple[int, int, int]:
        return (self.vfid, self.ingress, self.egress)


@dataclass
class FlowTableStats:
    """Occupancy / collision / overflow accounting for §4.4 (Fig. 13)."""

    inserts: int = 0
    vfid_collisions: int = 0
    bucket_overflows: int = 0
    cache_overflows: int = 0
    max_active_entries: int = 0


class FlowTable:
    """The virtual-flow hash table plus the overflow cache.

    The table is keyed by ``(vfid, ingress, egress)``.  A bucket is the set of
    entries sharing a VFID; its size is capped at ``config.table_bucket_size``
    to model the fixed hardware bucket.  Entries are created on the first
    packet of a flow and reclaimed when the flow's last packet leaves the
    switch.
    """

    def __init__(self, config: BfcConfig) -> None:
        self.config = config
        self._buckets: Dict[int, List[FlowEntry]] = {}
        self._overflow_cache: Dict[Tuple[int, int, int], FlowEntry] = {}
        self.stats = FlowTableStats()
        self._active_entries = 0

    # -- lookup / insert -----------------------------------------------------------

    def lookup(self, vfid: int, ingress: int, egress: int) -> Optional[FlowEntry]:
        """Find the entry for (vfid, ingress, egress), if any."""
        bucket = self._buckets.get(vfid)
        if bucket:
            for entry in bucket:
                if entry.ingress == ingress and entry.egress == egress:
                    return entry
        return self._overflow_cache.get((vfid, ingress, egress))

    def lookup_or_insert(
        self, vfid: int, ingress: int, egress: int, key: Optional[FlowKey] = None
    ) -> Optional[FlowEntry]:
        """Return the entry for a packet, creating one if needed.

        Returns ``None`` when neither the bucket nor the overflow cache has
        room, in which case the caller must divert the packet to the overflow
        queue (§3.8).
        """
        entry = self.lookup(vfid, ingress, egress)
        if entry is not None:
            if key is not None and entry.current_key is not None and entry.packets > 0:
                if key != entry.current_key:
                    # A different real flow hashed onto the same live entry.
                    self.stats.vfid_collisions += 1
                    entry.current_key = key
            elif key is not None:
                entry.current_key = key
            return entry
        return self._insert(vfid, ingress, egress, key)

    def _insert(
        self, vfid: int, ingress: int, egress: int, key: Optional[FlowKey]
    ) -> Optional[FlowEntry]:
        self.stats.inserts += 1
        entry = FlowEntry(vfid=vfid, ingress=ingress, egress=egress, current_key=key)
        bucket = self._buckets.setdefault(vfid, [])
        if len(bucket) < self.config.table_bucket_size:
            bucket.append(entry)
        else:
            self.stats.bucket_overflows += 1
            if len(self._overflow_cache) < self.config.overflow_cache_entries:
                entry.in_overflow_cache = True
                self._overflow_cache[entry.identity()] = entry
            else:
                self.stats.cache_overflows += 1
                return None
        self._active_entries += 1
        if self._active_entries > self.stats.max_active_entries:
            self.stats.max_active_entries = self._active_entries
        return entry

    # -- removal -------------------------------------------------------------------

    def remove(self, entry: FlowEntry) -> None:
        """Reclaim an entry (the flow's last packet left the switch).

        Raises ``ValueError`` if ``entry`` is not in the table, so a double
        reclaim cannot silently skew the occupancy count.
        """
        if entry.in_overflow_cache:
            identity = entry.identity()
            if self._overflow_cache.get(identity) is not entry:
                raise ValueError(f"flow entry {identity} is not in the overflow cache")
            del self._overflow_cache[identity]
        else:
            bucket = self._buckets.get(entry.vfid, ())
            for index, candidate in enumerate(bucket):
                if candidate is entry:
                    break
            else:
                raise ValueError(f"flow entry {entry.identity()} is not in the table")
            del bucket[index]
            if not bucket:
                del self._buckets[entry.vfid]
        self._active_entries -= 1

    # -- introspection ------------------------------------------------------------------

    def active_entries(self) -> int:
        return self._active_entries

    def entries(self) -> List[FlowEntry]:
        result: List[FlowEntry] = []
        for bucket in self._buckets.values():
            result.extend(bucket)
        result.extend(self._overflow_cache.values())
        return result

    def memory_bytes(self, entry_bytes: int = 16) -> int:
        """Rough hardware memory footprint (the paper's table is 256 KB)."""
        return self.config.num_vfids * self.config.table_bucket_size * entry_bytes
