"""The BFC-aware host NIC.

The paper assumes the NIC "has sufficient hardware to maintain a physical
queue per VFID" (§3.6), so a host never suffers head-of-line blocking from
BFC pauses: a Bloom-filter pause frame from the top-of-rack switch pauses
exactly the flows whose VFID matches, while every other flow keeps sending.
The NIC also marks the first packet of every flow so the ToR can steer it to
the high-priority queue (§3.7).

:class:`BfcNicScheduler` extends the base NIC scheduler
(:class:`repro.sim.host.NicScheduler`): flows are served deficit round robin
at line rate, and a flow whose VFID is present in the most recently received
pause filter has its ``paused`` flag set, which makes it ineligible.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.host import Host, NicScheduler, SenderFlowState
from repro.sim.packet import Packet

from .bloom import BloomFilterCodec
from .config import BfcConfig


class BfcNicScheduler(NicScheduler):
    """Per-flow-queue NIC scheduler that honours BFC pause frames.

    The scheduler owns :attr:`SenderFlowState.paused`: a flow's flag is set
    from the current pause filter when the flow is added, and re-derived for
    every flow only when a *different* filter arrives (the ToR re-sends an
    unchanged filter every Bloom interval).  Dequeue and the wake-up check
    then read one flag per flow.

    The class attribute :attr:`CONFIG` supplies the Bloom-filter geometry and
    VFID space; use :func:`bfc_nic_class` to bind a specific configuration.
    """

    CONFIG: BfcConfig = BfcConfig()

    def __init__(self, host: Host) -> None:
        super().__init__(host)
        self.config = self.CONFIG
        self.codec = BloomFilterCodec(
            size_bytes=self.config.bloom_filter_bytes,
            num_hashes=self.config.bloom_hash_functions,
        )
        self.pause_filter: Optional[bytes] = None
        # The installed filter if it marks any VFID, else None: an all-zero
        # filter pauses nothing and needs no membership tests.
        self._pause_bits: Optional[bytes] = None
        self.bloom_frames_received = 0

    # -- flows and pause frames ---------------------------------------------------

    def add_flow(self, fstate: SenderFlowState) -> None:
        super().add_flow(fstate)
        bits = self._pause_bits
        # fstate.key.vfid(space), reading the key's digest directly as
        # repro.core.vfid.packet_vfid does (here and in on_bloom).
        fstate.paused = bits is not None and self.codec.contains(
            bits, fstate.key._digest % self.config.num_vfids
        )

    def on_bloom(self, packet: Packet) -> None:
        """Install the pause filter shipped by the ToR switch."""
        self.bloom_frames_received += 1
        bitmap = packet.bloom_bits
        if bitmap == self.pause_filter:
            return
        self.pause_filter = bitmap
        bits = bitmap if bitmap and any(bitmap) else None
        self._pause_bits = bits
        contains = self.codec.contains
        space = self.config.num_vfids
        for fstate in self._flows.values():
            fstate.paused = bits is not None and contains(bits, fstate.key._digest % space)

    def paused_flow_count(self) -> int:
        """Flows currently blocked by the pause filter (for tests/analysis)."""
        return sum(1 for fstate in self._flows.values() if fstate.paused)


def bfc_nic_class(config: BfcConfig) -> type:
    """A :class:`BfcNicScheduler` subclass bound to a specific configuration."""

    class _ConfiguredBfcNic(BfcNicScheduler):
        CONFIG = config

    _ConfiguredBfcNic.__name__ = "BfcNicScheduler"
    _ConfiguredBfcNic.__qualname__ = "BfcNicScheduler"
    return _ConfiguredBfcNic
