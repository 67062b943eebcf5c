"""The benchmark's workloads: how each is built, timed and checked.

Each workload is one call into the program — ``run_experiment`` or
``Campaign.run`` — on inputs made from a seed.  ``call`` times that call and
returns an :class:`Outcome` holding every simulated experiment, so the
run script can check outputs and read counters the same way for all of them.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments import runner
from repro.experiments.scenarios import (
    fig5a_campaign,
    fig5a_configs,
    fig9_configs,
    openloop_crossdc_config,
)
from repro.experiments.schemes import get_scheme

#: A sink wrapper for the traced run, or None for the program's default sink.
SinkWrapper = Optional[Callable[[object], object]]


@dataclass
class Outcome:
    """What one timed workload call produced."""

    wall_s: float
    results: list  # every ExperimentResult the call simulated
    sim_p99_slowdown: float
    failures: List[str]
    digest: str = ""  # canonical records, for the traced cross-checks
    shard_stats: Optional[dict] = None
    trial_s_sum: float = 0.0
    spill_bytes: int = 0
    sink: Optional[object] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, scratch dir) -> the call's input (a config or a campaign).
    #: Building it is input generation, outside every timing.
    prepare: Callable[[int, Path], object]
    #: One timed call into the program: (input, sink wrapper) -> Outcome.
    call: Callable[[object, SinkWrapper], Outcome]
    #: Configs whose set-up (build_simulation + start_flows) makes setup_s.
    setup_configs: Callable[[object], list]
    #: The traced run's cross-check: the same input run another way.
    reference: Optional[Callable[[object], Outcome]] = None
    #: CPUs the call simulates on: 1, or 2 when it forks shard or pool workers.
    cpus: int = 1
    #: Inputs per --trace 0 run.  The packet rate of one call moves with its
    #: input: the standard deviation over calls of different seeds was 4-7%
    #: of the mean on three workloads and 13% on the sharded one, so that
    #: one averages over more inputs.
    inputs: int = 2


# -- output checks -----------------------------------------------------------


def check_result(result) -> List[str]:
    """No drops where PFC or BFC is on; one flow record per offered flow."""
    failures = []
    name = f"{result.config.name}/s{result.config.seed}"
    lossless = result.config.pfc_enabled or get_scheme(result.config.scheme).uses_bfc
    if lossless and result.dropped_packets:
        failures.append(f"{name}: {result.dropped_packets} drops with PFC/BFC on")
    records = sum(1 for _ in result.flow_stats.iter_records())
    if records != result.flows_offered:
        failures.append(f"{name}: {records} flow records for {result.flows_offered} offered flows")
    return failures


def flow_digest(result) -> str:
    """Hash of the canonical (flow-id ordered) flow records of one result."""
    rows = sorted(
        (
            rec.flow_id, rec.src, rec.dst, rec.size, rec.start_ns, rec.finish_ns,
            repr(rec.slowdown), rec.is_incast, rec.tag, rec.retransmissions,
        )
        for rec in result.flow_stats.iter_records()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def records_digest(result_set) -> str:
    """Hash of a campaign's trial records (wall-clock fields excluded)."""
    rows = sorted(
        (rec.name, rec.label, rec.scheme, rec.repeat, rec.seed, sorted(rec.metrics.items()))
        for rec in result_set.records
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def counters(results) -> Dict[str, int]:
    """Deterministic counters summed over every experiment of a call."""
    totals = dict.fromkeys(
        ("events", "pkts", "acks", "forwarded", "pauses", "bloom_frames",
         "table_inserts", "cnps"),
        0,
    )
    for r in results:
        totals["events"] += r.events_processed
        totals["pkts"] += r.host_counters.get("data_packets_received", 0)
        totals["acks"] += r.host_counters.get("acks_sent", 0)
        totals["cnps"] += r.host_counters.get("cnps_sent", 0)
        totals["forwarded"] += r.switch_counters.get("forwarded_packets", 0)
        totals["pauses"] += r.vfid_stats.get("pauses", 0)
        totals["bloom_frames"] += r.vfid_stats.get("bloom_frames_sent", 0)
        totals["table_inserts"] += r.vfid_stats.get("table_inserts", 0)
    return totals


# -- single experiments --------------------------------------------------------


def _timed_run(config, wrap_sink: SinkWrapper) -> Outcome:
    started = time.perf_counter()
    sink = None if wrap_sink is None else wrap_sink(runner.make_sink(config))
    result = runner.run_experiment(config, sink=sink)
    wall = time.perf_counter() - started
    return Outcome(wall, [result], result.p99_slowdown(), check_result(result), sink=sink)


def _incast_config(seed: int, scratch: Path):
    return fig5a_configs("small", schemes=["BFC"], seed=seed)["BFC"]


def _openloop_config(seed: int, scratch: Path):
    return openloop_crossdc_config(
        "tiny", "DCQCN", seed=seed, target_flows=20_000, target_load=0.3,
        results_dir=tempfile.mkdtemp(prefix="spill-", dir=scratch),
    )


def _openloop_call(config, wrap_sink: SinkWrapper) -> Outcome:
    outcome = _timed_run(config, wrap_sink)
    spilled = Path(outcome.results[0].results_ref)
    outcome.spill_bytes = sum(p.stat().st_size for p in spilled.rglob("*") if p.is_file())
    shutil.rmtree(config.results_dir, ignore_errors=True)
    return outcome


def _shard_config(seed: int, scratch: Path):
    config = fig9_configs("small", schemes=["BFC"], seed=seed)["BFC"]
    return replace(config, shards=2, shard_sync="conservative")


def _shard_call(config, wrap_sink: SinkWrapper) -> Outcome:
    outcome = _timed_run(config, wrap_sink)
    outcome.shard_stats = outcome.results[0].shard_stats
    outcome.digest = flow_digest(outcome.results[0])
    return outcome


def _shard_reference(config) -> Outcome:
    """The same cross-DC run in one process."""
    outcome = _timed_run(replace(config, shards=1), None)
    outcome.digest = flow_digest(outcome.results[0])
    return outcome


# -- the campaign --------------------------------------------------------------


def _campaign(seed: int, scratch: Path):
    return fig5a_campaign("tiny", seed=seed, repeats=3)


def _campaign_outcome(result_set, wall: float) -> Outcome:
    results = list(result_set.experiment_results().values())
    failures = [f for r in results for f in check_result(r)]
    by_seed: Dict[int, Dict[str, float]] = {}
    for rec in result_set.records:
        by_seed.setdefault(rec.seed, {})[rec.scheme] = rec.metrics["p99_slowdown"]
    for seed, p99 in sorted(by_seed.items()):
        if p99["BFC"] > p99["DCQCN"]:
            failures.append(
                f"seed {seed}: BFC p99 slowdown {p99['BFC']:.3f} above DCQCN's {p99['DCQCN']:.3f}"
            )
    bfc = [p99["BFC"] for p99 in by_seed.values()]
    return Outcome(
        wall,
        results,
        sum(bfc) / len(bfc),
        failures,
        digest=records_digest(result_set),
        trial_s_sum=sum(rec.wall_seconds for rec in result_set.records),
    )


def _campaign_run(campaign, **how) -> Outcome:
    started = time.perf_counter()
    result_set = campaign.run(**how)
    return _campaign_outcome(result_set, time.perf_counter() - started)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "incast-bfc",
            prepare=_incast_config,
            call=_timed_run,
            setup_configs=lambda config: [config],
        ),
        Workload(
            "openloop-dcqcn-spill",
            prepare=_openloop_config,
            call=_openloop_call,
            setup_configs=lambda config: [config],
        ),
        Workload(
            "crossdc-bfc-shard2",
            prepare=_shard_config,
            call=_shard_call,
            # One serial build; each shard worker repeats it.
            setup_configs=lambda config: [replace(config, shards=1)],
            reference=_shard_reference,
            cpus=2,
            inputs=5,
        ),
        Workload(
            "fig5a-campaign",
            prepare=_campaign,
            call=lambda campaign, wrap_sink: _campaign_run(campaign, cores=2),
            setup_configs=lambda campaign: [t.config for t in campaign.trials()],
            # The naive trial-counting pool must give the planner's records.
            reference=lambda campaign: _campaign_run(campaign, workers=2),
            cpus=2,
        ),
    )
}
