"""The traced run's counts repeat exactly, and the bfc layer shows up only
where BFC runs.

Slow (about two minutes: three traced runs), so it is not collected by a
plain ``pytest``; run it explicitly from the repository root::

    python3 -m pytest -q perfbench/tests/check_trace_determinism.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

#: Per-layer metrics that are pure functions of the simulated input.
COUNTERS = (
    "engine.events_per_pkt",
    "fabric.acks_per_pkt",
    "fabric.forwarded_per_pkt",
    "bfc.pauses_per_pkt",
    "bfc.bloom_frames_per_pkt",
    "bfc.table_inserts_per_pkt",
    "cc.cnps_per_pkt",
    "shard.barriers",
    "shard.boundary_pkts",
    "sim_p99_slowdown",
)


def traced(workload: str, seed: int = 11) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def incast_twice():
    return traced("incast-bfc"), traced("incast-bfc")


def test_counts_repeat_exactly(incast_twice):
    first, second = incast_twice
    names = [n for n in first if n.endswith(".calls_per_pkt")] + list(COUNTERS)
    assert len(names) == 11 + len(COUNTERS)
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


def test_bfc_layer_only_where_bfc_runs(incast_twice):
    assert incast_twice[0]["bfc.calls_per_pkt"] > 10
    # DCQCN does no BFC work per packet.  The only repro.core calls are the
    # two made once per run while the scheme environment is built
    # (BfcConfig.__post_init__ and validate), about 5e-5 per packet here.
    assert traced("openloop-dcqcn-spill")["bfc.calls_per_pkt"] < 1e-3
