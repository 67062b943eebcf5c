"""Sharded == single-process determinism proof.

The contract of :mod:`repro.shard` is that running ONE experiment across
several OS processes is *measurement-invisible*: every canonical record a
single-process run produces — flow completions and slowdowns, switch
counters, buffer/queue samples in their exact order, pause fractions,
utilization, VFID statistics — is byte-for-byte identical when the same
config runs sharded.  Only ``events_processed`` legitimately differs (each
boundary crossing is two engine events instead of one, and every shard runs
its own sampling tick).

The scenario is the golden-records fig5a slice (see ``tests/golden_kernel``),
covering the three most distinct kernels: BFC (VFID tables, Bloom pauses),
DCQCN (ECN + per-switch RNG draws) and HPCC (INT stamping), so the proof
spans control packets, RNG state and telemetry crossing shard boundaries.

These tests also pin the coordinator's sampling replica
(:class:`repro.shard.coordinator._ShardSampler`) to the runner's
``_schedule_sampling`` loop: a change to either that breaks the interleaving
shows up here as a byte diff.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import Campaign, ParallelExecutor, SerialExecutor
from repro.experiments.runner import check_shard_sync, run_experiment
from repro.experiments.scenarios import fig9_configs
from repro.shard import ShardError, run_sharded_experiment
from repro.sim import units

from tests.golden_kernel import GOLDEN_SCHEMES, canonical_records, golden_configs


#: Every key a sharded run may report in ``ExperimentResult.shard_stats``.
#: The same table appears in docs/architecture.md ("shard_stats schema") —
#: keep the two in sync; :func:`assert_shard_stats_schema` enforces this one.
SHARD_STATS_KEYS = {
    # From PartitionSpec.stats (always present).
    "num_shards", "strategy", "shards", "cut_links", "cut_links_by_class",
    "window_ns",
    # Degenerate partitions fall back to the single-process runner.
    "degenerate",
    # Scheduling (present when the campaign scheduler reserved slots).
    "slot_budget", "oversubscribed",
    # Coordinator merge (present on every true multi-process run).
    "barriers", "boundary_packets",
    "events_per_shard", "boundary_ports_per_shard",
}

def assert_shard_stats_schema(stats):
    """Fail on any undocumented shard_stats key (schema-drift tripwire)."""
    assert stats is not None
    unknown = set(stats) - SHARD_STATS_KEYS
    assert not unknown, (
        f"undocumented shard_stats keys {sorted(unknown)}; add them to "
        "SHARD_STATS_KEYS here AND to the schema table in docs/architecture.md"
    )


def shard_canonical(result):
    """Canonical records comparable between sharded and serial runs.

    Identical to the golden reduction except for ``events_processed``: a
    sharded run fires one capture event per boundary crossing plus one
    sampling tick per shard, so the raw engine event count is the one
    quantity that is *expected* to differ.
    """
    records = canonical_records(result)
    records.pop("events_processed")
    # Round-trip through JSON so float formatting matches exactly.
    return json.loads(json.dumps(records, sort_keys=True))


@pytest.fixture(scope="module")
def serial_records():
    return {
        scheme: shard_canonical(run_experiment(config))
        for scheme, config in golden_configs().items()
    }


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_byte_identical_records(self, serial_records, scheme, shards):
        config = replace(golden_configs()[scheme], shards=shards)
        sharded = shard_canonical(run_experiment(config))
        serial = serial_records[scheme]
        for key in serial:
            assert sharded[key] == serial[key], (
                f"{scheme} shards={shards}: {key} diverged from the "
                "single-process run"
            )
        assert sharded == serial

    def test_sharded_run_is_deterministic_run_to_run(self):
        config = replace(golden_configs()["BFC"], shards=2)
        first = shard_canonical(run_experiment(config))
        second = shard_canonical(run_experiment(config))
        assert first == second

    def test_shard_stats_reported(self):
        config = replace(golden_configs()["BFC"], shards=2)
        result = run_experiment(config)
        stats = result.shard_stats
        assert stats is not None
        assert_shard_stats_schema(stats)
        assert stats["num_shards"] == 2
        assert stats["cut_links"] > 0
        assert stats["window_ns"] == config.clos.link_delay_ns
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        assert sum(int(v) for v in stats["events_per_shard"].values()) == (
            result.events_processed
        )


class TestShardSyncValidation:
    """``shard_sync`` is validated on every run, whatever the shard count.

    Conservative epochs are the only synchronization protocol; the
    speculative (time-warp) and adaptive modes were removed.
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_conservative_accepted(self, shards):
        config = replace(golden_configs()["BFC"], shards=shards,
                         shard_sync="conservative")
        check_shard_sync(config)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "sync", ["speculative", "adaptive", "psychic", "Conservative"]
    )
    def test_other_values_rejected(self, shards, sync):
        config = replace(golden_configs()["BFC"], shards=shards,
                         shard_sync=sync)
        with pytest.raises(ShardError, match="shard_sync") as excinfo:
            run_experiment(config)
        message = str(excinfo.value)
        assert "'conservative'" in message
        assert "removed" in message

    def test_sharded_entry_point_rejects_too(self):
        config = replace(golden_configs()["BFC"], shards=2,
                         shard_sync="speculative")
        with pytest.raises(ShardError, match="shard_sync"):
            run_sharded_experiment(config)


class TestSingleShardDegradesToPlainRunner:
    def test_shards_1_is_byte_identical_including_event_count(self):
        config = golden_configs()["DCQCN"]
        plain = run_experiment(config)
        one_shard = run_experiment(replace(config, shards=1))
        a = json.loads(json.dumps(canonical_records(plain), sort_keys=True))
        b = json.loads(json.dumps(canonical_records(one_shard), sort_keys=True))
        assert a == b  # includes events_processed: same engine, same schedule
        assert one_shard.shard_stats is None


class TestCrossDcSharding:
    """Per-DC sharding: the inter-DC link is the (large) lookahead window."""

    @pytest.fixture(scope="class")
    def fig9_config(self):
        config = fig9_configs("tiny", schemes=("BFC",), seed=3)["BFC"]
        return replace(
            config,
            duration_ns=units.microseconds(150),
            drain_ns=units.microseconds(75),
        )

    def test_two_dc_shards_byte_identical(self, fig9_config):
        serial = shard_canonical(run_experiment(fig9_config))
        sharded_result = run_experiment(replace(fig9_config, shards=2))
        assert shard_canonical(sharded_result) == serial
        stats = sharded_result.shard_stats
        assert stats["strategy"] == "dc"
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        # Lookahead equals the cross-DC propagation delay.
        assert stats["window_ns"] == fig9_config.cross_dc.gateway_delay_ns

    def test_pod_sharding_across_dcs_byte_identical(self, fig9_config):
        serial = shard_canonical(run_experiment(fig9_config))
        sharded = run_experiment(
            replace(fig9_config, shards=4, shard_strategy="pod")
        )
        assert shard_canonical(sharded) == serial

class TestCampaignComposition:
    """Sharded trials ride through Serial/Parallel executors unchanged."""

    def test_parallel_executor_runs_sharded_trials(self):
        configs = {
            scheme: replace(config, shards=2)
            for scheme, config in golden_configs().items()
            if scheme in ("BFC", "DCQCN")
        }
        serial = Campaign.from_configs("shard-camp", configs).run(
            executor=SerialExecutor()
        )
        parallel = Campaign.from_configs("shard-camp", configs).run(
            executor=ParallelExecutor(workers=2)
        )
        assert serial == parallel
        for scheme in configs:
            label = f"shard-camp/{scheme}"
            a = shard_canonical(serial.experiment_result(label))
            b = shard_canonical(parallel.experiment_result(label))
            assert a == b, f"{scheme}: serial vs parallel sharded records diverged"


class TestFlowGraphSharding:
    """Dependency-driven workloads (collectives, RPC trees) under sharding.

    A flow graph launches flows at run time when prerequisites complete, so
    these scenarios prove the launcher's shard-locality invariant end to
    end: every prerequisite terminates at its dependent's source host, hence
    completions (and the launches they trigger) happen on the owning shard
    and the merged records are byte-identical to a single-process run —
    including ``start_ns``, which is stamped dynamically at launch.
    """

    @pytest.fixture(scope="class")
    def collective_config(self):
        from repro.experiments.scenarios import collective_configs

        config = collective_configs(
            "tiny", kinds=("all-to-all",), schemes=("BFC",), iterations=2,
            seed=7,
        )["all-to-all/BFC"]
        return replace(config, duration_ns=units.microseconds(300))

    @pytest.fixture(scope="class")
    def rpc_config(self):
        from repro.experiments.scenarios import rpc_fanout_configs

        config = rpc_fanout_configs(
            "tiny", schemes=("BFC",), background_load=0.20, seed=7
        )["BFC"]
        return replace(config, duration_ns=units.microseconds(300))

    def test_collective_two_shards_byte_identical(self, collective_config):
        serial = shard_canonical(run_experiment(collective_config))
        result = run_experiment(replace(collective_config, shards=2))
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"collective: {key} diverged from single-process"
            )
        assert sharded == serial
        assert_shard_stats_schema(result.shard_stats)

    def test_rpc_two_shards_byte_identical(self, rpc_config):
        serial = shard_canonical(run_experiment(rpc_config))
        result = run_experiment(replace(rpc_config, shards=2))
        sharded = shard_canonical(result)
        for key in serial:
            assert sharded[key] == serial[key], (
                f"rpc: {key} diverged from single-process"
            )
        assert sharded == serial
        assert_shard_stats_schema(result.shard_stats)

    def test_dynamic_start_times_survive_the_merge(self, collective_config):
        """Dependent flows' stamped start_ns reach the coordinator's records."""
        serial = run_experiment(collective_config)
        sharded = run_experiment(replace(collective_config, shards=2))
        starts_serial = sorted(
            (r.flow_id, r.start_ns) for r in serial.flow_stats.records
        )
        starts_sharded = sorted(
            (r.flow_id, r.start_ns) for r in sharded.flow_stats.records
        )
        assert starts_serial == starts_sharded
        # Dependency launches really happened: not every start is at time 0.
        assert len({start for _, start in starts_serial}) > 1
