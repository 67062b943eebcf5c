"""Property-test safety net: every registered scheme x every workload shape.

Scheme-specific suites pin each scheme's *mechanism* (marking thresholds,
pause bitmaps, INT fields); this module pins the *contract* every scheme and
workload shape must honour regardless of mechanism:

* a smoke run at micro scale completes without error and makes progress;
* every emitted record is schema-valid and internally consistent;
* every flow the config offered is accounted for in the records;
* the parallel campaign executor reproduces the serial records exactly;
* a run split over 2 or 4 conservative shards reproduces the
  single-process records byte for byte (open-loop traffic, which shards
  cannot carry, is refused with a :class:`~repro.shard.ShardError`);
* ``BFC-Est`` at telemetry staleness 0 degenerates to plain ``BFC``
  byte-for-byte (it is the same kernel reading exact state).

The matrix is registry-driven: a newly registered scheme or a new workload
shape is covered the moment it exists, with no test edits.  Keep the smoke
configs micro — the value here is breadth, not depth.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, Tuple

import pytest
from golden_kernel import canonical_records

from repro.campaign.core import Trial
from repro.campaign.executors import ParallelExecutor
from repro.experiments.runner import ExperimentConfig, TrafficSpec, run_experiment
from repro.experiments.scenarios import _background_traffic, get_scale
from repro.experiments.schemes import available_schemes
from repro.shard import ShardError
from repro.sim import units
from repro.workloads.collectives import CollectiveSpec
from repro.workloads.distributions import GOOGLE
from repro.workloads.openloop import OpenLoopSpec
from repro.workloads.rpc import RpcFanoutSpec

SMOKE_DURATION_NS = units.microseconds(120)

#: The graph shapes carry no background load (runtime is per-flow, and the
#: graphs are a few dozen flows) but their dependency chains must fully
#: drain, and the slower windowed schemes need headroom for that.
GRAPH_DURATION_NS = units.microseconds(600)

SMOKE_SEED = 3

#: The workload shapes of the matrix.  "trace" is the paper's closed-loop
#: background + incast mix; "openloop" drives lazy run-time arrivals through
#: the streaming-harvest path; "collective" and "rpc" launch dependency-driven
#: flow graphs through the FlowGraphLauncher hook.
WORKLOAD_SHAPES = ("trace", "openloop", "collective", "rpc")

#: The shapes a sharded run accepts: open-loop arrivals are generated on one
#: clock at run time, which shards cannot split.
SHARDED_SHAPES = tuple(shape for shape in WORKLOAD_SHAPES if shape != "openloop")


def _smoke_scale():
    return replace(get_scale("tiny"), duration_ns=SMOKE_DURATION_NS)


def _smoke_traffic(shape: str) -> TrafficSpec:
    scale = _smoke_scale()
    if shape == "trace":
        return _background_traffic(
            scale, GOOGLE, 0.50, incast_load=0.05, seed=SMOKE_SEED
        )
    if shape == "openloop":
        return TrafficSpec(
            open_loop=OpenLoopSpec(
                distribution=GOOGLE,
                duration_ns=scale.duration_ns,
                target_load=0.40,
                max_flow_size=scale.max_flow_size,
            ),
            seed=SMOKE_SEED,
        )
    if shape == "collective":
        return TrafficSpec(
            flow_graph=CollectiveSpec(
                kind="ring-allreduce",
                num_workers=4,
                chunk_bytes=20_000,
                iterations=1,
            ),
            seed=SMOKE_SEED,
        )
    if shape == "rpc":
        return TrafficSpec(
            flow_graph=RpcFanoutSpec(
                num_requests=2,
                fan_out=2,
                depth=2,
                mean_interarrival_ns=20_000,
            ),
            seed=SMOKE_SEED,
        )
    raise AssertionError(f"unknown workload shape {shape!r}")


def smoke_config(scheme: str, shape: str) -> ExperimentConfig:
    scale = _smoke_scale()
    duration = GRAPH_DURATION_NS if shape in ("collective", "rpc") else scale.duration_ns
    return ExperimentConfig(
        name=f"prop/{shape}/{scheme}",
        scheme=scheme,
        clos=scale.clos,
        traffic=_smoke_traffic(shape),
        buffer_bytes=scale.buffer_bytes(),
        duration_ns=duration,
        seed=SMOKE_SEED,
        mtu=scale.mtu,
    )


#: One shared run per (scheme, shape) cell: the smoke, accounting and
#: degenerate-equivalence tests all read the same result, so the matrix is
#: simulated once per cell no matter how many properties inspect it.
_RESULTS: Dict[Tuple[str, str], object] = {}


def run_cell(scheme: str, shape: str):
    key = (scheme, shape)
    if key not in _RESULTS:
        _RESULTS[key] = run_experiment(smoke_config(scheme, shape))
    return _RESULTS[key]


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
@pytest.mark.parametrize("scheme", available_schemes())
class TestSchemeWorkloadMatrix:
    def test_run_completes_and_makes_progress(self, scheme, shape):
        result = run_cell(scheme, shape)
        assert result.events_processed > 0
        assert result.flows_offered > 0
        assert result.flow_stats.records, (scheme, shape)
        # A scheme that finishes nothing inside the window is broken, not slow.
        finished = [r for r in result.flow_stats.records if r.finish_ns is not None]
        assert finished, (scheme, shape)

    def test_records_are_schema_valid(self, scheme, shape):
        result = run_cell(scheme, shape)
        seen_ids = set()
        for rec in result.flow_stats.records:
            assert isinstance(rec.flow_id, int) and rec.flow_id >= 0
            assert rec.flow_id not in seen_ids, f"duplicate record {rec.flow_id}"
            seen_ids.add(rec.flow_id)
            assert isinstance(rec.src, int) and isinstance(rec.dst, int)
            assert rec.src != rec.dst
            assert isinstance(rec.size, int) and rec.size >= 1
            assert isinstance(rec.start_ns, int) and rec.start_ns >= 0
            assert isinstance(rec.tag, str) and rec.tag
            assert isinstance(rec.is_incast, bool)
            assert rec.retransmissions >= 0
            if rec.finish_ns is None:
                assert rec.slowdown is None
            else:
                assert rec.finish_ns > rec.start_ns
                assert rec.slowdown is not None and rec.slowdown >= 1.0

    def test_every_offered_flow_is_accounted(self, scheme, shape):
        result = run_cell(scheme, shape)
        # Every offered flow produced exactly one record — finished or not.
        assert len(result.flow_stats.records) == result.flows_offered
        if shape in ("collective", "rpc"):
            graph = smoke_config(scheme, shape).traffic.build_graph(
                sorted({r.src for r in result.flow_stats.records}
                       | {r.dst for r in result.flow_stats.records})
            )
            recorded = {r.flow_id for r in result.flow_stats.records}
            tagged = [r for r in result.flow_stats.records if r.tag in ("collective", "rpc")]
            assert len(tagged) == len(graph.flows)
            # Dependency-driven flows must actually have launched and drained:
            # a wedged launcher shows up as unfinished graph flows here.
            assert all(r.finish_ns is not None for r in tagged), (scheme, shape)
            assert recorded.issuperset({f.flow_id for f in graph.flows} & recorded)


class TestExecutorEquivalence:
    """The parallel campaign executor must not change what is simulated."""

    def test_parallel_records_match_serial(self):
        # One trial per workload shape, under a scheme with runtime state
        # rich enough to expose divergence (telemetry history + RNG draws).
        trials = [
            Trial(
                name=f"exec/{shape}",
                label=shape,
                scheme="BFC-Est",
                seed=SMOKE_SEED,
                config=smoke_config("BFC-Est", shape),
            )
            for shape in WORKLOAD_SHAPES
        ]
        parallel = ParallelExecutor(workers=2).run(trials)
        for trial, (record, result) in zip(trials, parallel):
            serial = canonical_records(run_cell("BFC-Est", trial.label))
            assert canonical_records(result) == serial, trial.label


def _without_event_count(result):
    """Canonical records minus ``events_processed``, which sharding changes.

    Every boundary crossing costs a sharded run one extra engine event and
    every shard runs its own sampling tick; nothing else may differ.
    """
    records = canonical_records(result)
    records.pop("events_processed")
    # Round-trip through JSON so float formatting matches exactly.
    return json.loads(json.dumps(records, sort_keys=True))


@pytest.mark.parametrize("shape", SHARDED_SHAPES)
@pytest.mark.parametrize("scheme", available_schemes())
class TestShardedMatchesSerial:
    """Conservative shards must not change what is simulated.

    On the micro fabric, 2 shards put one pod and one spine in each shard;
    4 shards leave the spines alone in a shard of their own, so every packet
    that leaves a ToR crosses a shard boundary.
    """

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_records_match_serial(self, scheme, shape, shards):
        serial = _without_event_count(run_cell(scheme, shape))
        result = run_experiment(replace(smoke_config(scheme, shape), shards=shards))
        assert result.shard_stats["boundary_packets"] > 0, (scheme, shape)
        sharded = _without_event_count(result)
        for key in serial:
            assert sharded[key] == serial[key], (scheme, shape, shards, key)
        assert sharded == serial


def test_open_loop_traffic_refuses_shards():
    config = replace(smoke_config("BFC", "openloop"), shards=2)
    with pytest.raises(ShardError, match="open-loop traffic"):
        run_experiment(config)


class TestSpillSinkEquivalence:
    """Flow-graph workloads must compose with the streaming spill sink."""

    @pytest.mark.parametrize("shape", ("collective", "rpc"))
    def test_spilled_graph_records_match_in_memory(self, shape, tmp_path):
        mem = run_cell("BFC", shape)
        spill = run_experiment(
            replace(smoke_config("BFC", shape), results_dir=str(tmp_path))
        )
        assert spill.results_ref is not None
        assert spill.events_processed == mem.events_processed
        assert spill.flow_stats.records == mem.flow_stats.records


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
class TestEstimatorDegeneratesToExact:
    """BFC-Est with fresh telemetry IS BFC — same kernel, exact state."""

    def test_zero_staleness_records_identical(self, shape):
        exact = canonical_records(run_cell("BFC", shape))
        est = canonical_records(run_cell("BFC-Est", shape))
        # Only the label may differ; every simulated byte must match.
        assert exact.pop("scheme") == "BFC"
        assert est.pop("scheme") == "BFC-Est"
        assert est == exact, shape
