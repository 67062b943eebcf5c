"""The BFC-aware host NIC.

The paper assumes the NIC "has sufficient hardware to maintain a physical
queue per VFID" (§3.6), so a host never suffers head-of-line blocking from
BFC pauses: a Bloom-filter pause frame from the top-of-rack switch pauses
exactly the flows whose VFID matches, while every other flow keeps sending.
The NIC also marks the first packet of every flow so the ToR can steer it to
the high-priority queue (§3.7).

:class:`BfcNicScheduler` extends the base NIC scheduler
(:class:`repro.sim.host.NicScheduler`): flows are served deficit round robin
at line rate, and eligibility additionally requires that the flow's VFID is
not present in the most recently received pause filter.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.host import Host, NicScheduler, SenderFlowState
from repro.sim.packet import Packet

from .bloom import BloomFilterCodec
from .config import BfcConfig


class BfcNicScheduler(NicScheduler):
    """Per-flow-queue NIC scheduler that honours BFC pause frames.

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
        self.bloom_frames_received = 0
        # Memoized membership tests against the *current* pause filter: the
        # filter changes once per Bloom interval while eligibility is checked
        # on every dequeue, and ``contains`` is a pure function of
        # (filter, vfid).  Reset whenever a new filter is installed.
        self._paused_memo: dict = {}

    # -- pause frames -------------------------------------------------------------

    def on_bloom(self, packet: Packet) -> None:
        """Install the pause filter shipped by the ToR switch."""
        self.pause_filter = packet.bloom_bits
        self.bloom_frames_received += 1
        self._paused_memo = {}

    # -- eligibility ----------------------------------------------------------------

    def _flow_vfid(self, fstate: SenderFlowState) -> int:
        vfid = fstate.cc_state.get("bfc_vfid")
        if vfid is None:
            vfid = fstate.key.vfid(self.config.num_vfids)
            fstate.cc_state["bfc_vfid"] = vfid
        return vfid

    def _flow_is_paused(self, fstate: SenderFlowState) -> bool:
        if fstate.paused:
            return True
        filt = self.pause_filter
        if filt is None:
            return False
        vfid = fstate.cc_state.get("bfc_vfid")
        if vfid is None:
            vfid = fstate.key.vfid(self.config.num_vfids)
            fstate.cc_state["bfc_vfid"] = vfid
        memo = self._paused_memo
        paused = memo.get(vfid)
        if paused is None:
            paused = self.codec.contains(filt, vfid)
            memo[vfid] = paused
        return paused

    def paused_flow_count(self) -> int:
        """Flows currently blocked by the pause filter (for tests/analysis)."""
        count = 0
        for flow_id in list(self._flows):
            fstate = self._flows[flow_id]
            if self._flow_is_paused(fstate):
                count += 1
        return count


def bfc_nic_class(config: BfcConfig) -> type:
    """A :class:`BfcNicScheduler` subclass bound to a specific configuration."""

    class _ConfiguredBfcNic(BfcNicScheduler):
        CONFIG = config

    _ConfiguredBfcNic.__name__ = "BfcNicScheduler"
    _ConfiguredBfcNic.__qualname__ = "BfcNicScheduler"
    return _ConfiguredBfcNic
