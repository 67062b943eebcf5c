#!/usr/bin/env python3
"""End-to-end benchmark of the BFC simulator, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload incast-bfc --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload incast-bfc --seed 11 --trace 1

Workloads and metrics are listed in ``BENCHMARK.json``; their definitions
live in ``perfbench/workloads.py``.  Every workload call runs in a fresh
child process of this script, so peak memory and interpreter state belong to
that call alone.

``--trace 0`` measures the end-to-end metrics.  A run simulates the
workload on its ``inputs`` inputs derived from ``--seed``: one call per input,
then more calls round the inputs while the next one should still end within
``--seconds``.  Each metric is first taken per input and then averaged over
the inputs.

Host seconds are scaled to a reference host.  A shared virtual machine's
CPUs change speed by a quarter or more over tens of seconds, with the load
of other tenants on the same physical cores, and every timing moves with
them.  So while a child does its timed work, a thread of this script times
a short fixed pure-Python loop, the probe, every ``PROBE_PERIOD_S`` on the
CPUs the child runs on: a child that simulates in one process is pinned to
one CPU together with the probe; one whose workload forks workers onto both
CPUs is not pinned, and the probe lands on whichever CPU it preempts.  A
call's wall time, and the set-up pass's times, are multiplied by
``host_speed``: ``REF_PROBE_S`` over the mean probe time inside that call
or pass.  That gives seconds of the reference host, on which the probe
takes ``REF_PROBE_S``.  A change to the program moves these times as it
moves the host's; a change in the host's speed cancels out.  The probe
takes about 2% of the CPU it runs on.  The report keeps the run's median
``host_speed``; the host's own seconds are about the scaled ones divided by
it.

An input's ``wall_s`` is the median of its calls, and ``pkts_per_s`` is the
inputs' delivered packets over their summed ``wall_s``.  ``peak_rss_mb`` is
an input's median over calls of the peak memory of the child's process tree
(proportional set size, so pages that forked workers share are counted
once).  ``setup_s`` is an input's median over the set-ups it repeats in its
share of ``SETUP_BUDGET_S``, in one more child.
``sim_p99_slowdown`` is fixed by the input.  ``wall_s``,
``sim_p99_slowdown`` and ``host_speed`` are printed in the report but carry
no bound: from one seed to the next the first two move with the size and
burstiness of the generated traffic by more than any bound allows, while
``pkts_per_s`` gives the same speed per delivered packet.

``--trace 1`` produces the per-layer metrics from the first input, in up to
three children: a span pass (spans around the public calls, a timing sink,
deterministic counters), a reference pass (shard and campaign workloads run
the same input another way and must give the same records) and a profile
pass (``cProfile`` in the child and in every worker it forks, grouped into
layers by ``perfbench/layers.json``).

Every call's outputs are checked; a failed check counts as a failed run.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full report (environment stamp, every call),
which is also written to ``.perfbench/``.

The determinism test of the traced run is run explicitly::

    python3 -m pytest -q perfbench/tests/check_trace_determinism.py
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Measured and reported, but not gated: the spread over seeds of the first
#: two is the spread of the inputs (see BENCHMARK.json's workloads), and
#: host_speed is the host's, not the program's.
REPORT_ONLY_UNITS = {"wall_s": "s", "sim_p99_slowdown": "slowdown", "host_speed": "x"}

#: Every child of a run must end within --seconds plus this many seconds of
#: the run's start; one still running is killed with its workers and fails.
RUN_SLACK_S = 140
#: Input j of a run at --seed s is made from seed s + SEED_STRIDE * j.
SEED_STRIDE = 1000
#: The set-up pass repeats each input's set-up for its share of this budget.
SETUP_BUDGET_S = 3.0
#: Period of the process-tree memory sampler.
RSS_POLL_S = 0.1
#: The probe's median time on the reference host (2-vCPU VM, Python 3.11.7),
#: its size, and how often it runs while a child works.
REF_PROBE_S = 0.0012
PROBE_ITEMS = 600
PROBE_PERIOD_S = 0.05


# -- the host-speed probe --------------------------------------------------------


class _Item:
    __slots__ = ("key", "hops")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hops = 0


def _probe_loop() -> int:
    """Heap, small objects, attribute and dict traffic, like the event loop."""
    heap: list = []
    table: Dict[int, int] = {}
    for i in range(PROBE_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 4099, i, _Item(i)))
    total = 0
    while heap:
        _, _, item = heapq.heappop(heap)
        item.hops += 1
        slot = item.key & 255
        table[slot] = table.get(slot, 0) + item.hops
        total += item.key
    return total + len(table)


class _HostProbe(threading.Thread):
    """Times the probe loop every PROBE_PERIOD_S: (monotonic end, seconds)."""

    def __init__(self, cpu: Optional[int]) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: List[tuple] = []
        self.done = threading.Event()

    def run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self.done.wait(PROBE_PERIOD_S):
            started = time.monotonic()
            _probe_loop()
            ended = time.monotonic()
            self.samples.append((ended, ended - started))

    def speed(self, window: List[float]) -> Optional[float]:
        """REF_PROBE_S over the mean probe time inside [start, end]."""
        start, end = window
        inside = [d for t, d in self.samples if start <= t <= end]
        return REF_PROBE_S / statistics.fmean(inside) if inside else None


# -- child side: one pass in a fresh process -------------------------------------


def _child_run(workload, seed: int, scratch: Path) -> dict:
    from workloads import counters

    prepared = workload.prepare(seed, scratch)
    started = time.monotonic()
    outcome = workload.call(prepared, None)
    return {
        "wall_s": outcome.wall_s,
        "window": [started, time.monotonic()],
        "pkts": counters(outcome.results)["pkts"],
        "sim_p99_slowdown": outcome.sim_p99_slowdown,
        "failures": outcome.failures,
    }


def _child_setup(workload, seed: int, scratch: Path) -> dict:
    """{input seed: set-up times}, each input repeated for its budget share."""
    from repro.experiments import runner

    seeds = sub_seeds(workload, seed)
    prepared = [workload.prepare(s, scratch) for s in seeds]
    times: Dict[str, List[float]] = {}
    window_start = time.monotonic()
    for input_seed, prepared_input in zip(seeds, prepared):
        configs = workload.setup_configs(prepared_input)
        samples = times[str(input_seed)] = []
        budget_end = time.perf_counter() + SETUP_BUDGET_S / len(seeds)
        while len(samples) < 3 or time.perf_counter() < budget_end:
            setup_s = 0.0
            for config in configs:
                started = time.perf_counter()
                _sim, _env, topo, trace = runner.build_simulation(config)
                topo.start_flows(trace)
                setup_s += time.perf_counter() - started
                del _sim, _env, topo, trace
                gc.collect()
            samples.append(setup_s)
    return {"setup_s": times, "window": [window_start, time.monotonic()], "failures": []}


def _child_spans(workload, seed: int, scratch: Path) -> dict:
    from repro.experiments import runner
    from tracer import ChildCollector, SpanRecorder, TimedSink, instrument, span_totals
    from workloads import counters

    prepared = workload.prepare(seed, scratch)
    recorder = SpanRecorder()
    for config in workload.setup_configs(prepared):
        with recorder.span("topology.build"):
            topo = runner.build_topology_only(config)
        with recorder.span("workloads.trace"):
            config.traffic.build(topo.host_ids(), topo.host_link_rate_bps, config.duration_ns)
        del topo
    gc.collect()
    instrument(recorder)
    collector = ChildCollector(scratch / "children", recorder, profile=False)
    outcome = workload.call(prepared, TimedSink)
    children = collector.collected()
    totals = span_totals([recorder.spans] + [dump["spans"] for dump in children])
    sink = outcome.sink
    return {
        "wall_s": outcome.wall_s,
        "counters": counters(outcome.results),
        "failures": outcome.failures,
        "digest": outcome.digest,
        "sim_p99_slowdown": outcome.sim_p99_slowdown,
        "shard_stats": outcome.shard_stats,
        "trial_s_sum": outcome.trial_s_sum,
        "child_processes": len(children),
        "spans": {
            "topology.build_s": totals.get("topology.build", (0.0, 0.0))[0],
            "workloads.trace_s": totals.get("workloads.trace", (0.0, 0.0))[0],
            "engine.loop_s": totals.get("Simulator.run", (0.0, 0.0))[0],
            "runner.harvest_s": totals.get("run_experiment", (0.0, 0.0))[1],
            "results.record_s": sink.record_s if sink is not None else 0.0,
            "results.finalize_s": sink.finalize_s if sink is not None else 0.0,
            "results.spill_bytes": outcome.spill_bytes,
        },
    }


def _child_reference(workload, seed: int, scratch: Path) -> dict:
    outcome = workload.reference(workload.prepare(seed, scratch))
    return {"wall_s": outcome.wall_s, "digest": outcome.digest, "failures": outcome.failures}


def _child_profile(workload, seed: int, scratch: Path) -> dict:
    from tracer import ChildCollector, SpanRecorder, group_by_layer, profile_rows, wait_share
    from workloads import counters

    prepared = workload.prepare(seed, scratch)
    collector = ChildCollector(scratch / "children", SpanRecorder(), profile=True)
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = workload.call(prepared, None)
    profiler.disable()
    rows = profile_rows(profiler)
    children = collector.collected()
    grouped = group_by_layer([rows] + [d["profile"] for d in children])
    return {
        "wall_s": outcome.wall_s,
        "pkts": counters(outcome.results)["pkts"],
        "failures": outcome.failures,
        "calls": grouped.calls,
        "self_time": grouped.self_time,
        "unmapped_modules": grouped.unmapped,
        "coord_wait_share": wait_share(rows),
        "child_processes": len(children),
    }


CHILD_PASSES = {
    "run": _child_run,
    "setup": _child_setup,
    "spans": _child_spans,
    "reference": _child_reference,
    "profile": _child_profile,
}


def child_main(args) -> int:
    from repro.sim.engine import ENGINE_BACKEND
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.child}-", dir=OUT))
    try:
        payload = CHILD_PASSES[args.child](workload, args.seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload["engine_backend"] = ENGINE_BACKEND
    # Peaks of the process and of its largest worker, which the tree sampler
    # can miss when the worker lives shorter than one poll.
    payload["self_maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(payload))
    return 0


# -- parent side: children, memory sampling, aggregation ---------------------------


def _process_memory_kb(pid: int) -> int:
    """Proportional set size of one process; resident size where unavailable."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, IndexError, ValueError):
        return 0


def _children(pid: int) -> List[int]:
    """Child processes forked by any thread of a process."""
    found: List[int] = []
    try:
        for task in os.scandir(f"/proc/{pid}/task"):
            with open(f"{task.path}/children", "rb") as handle:
                found.extend(int(child) for child in handle.read().split())
    except (OSError, ValueError):
        pass
    return found


def _tree_memory_kb(root_pid: int) -> int:
    """Memory of a process and all its descendants, from /proc.

    Proportional set sizes add up: a page that forked workers share
    copy-on-write with their parent is counted once, not once per process.
    """
    total = 0
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        total += _process_memory_kb(pid)
        stack.extend(_children(pid))
    return total


class _TreeSampler(threading.Thread):
    """Polls a child's process tree for its peak total memory."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self) -> None:
        if not os.path.isdir("/proc"):
            return
        while not self.done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, _tree_memory_kb(self.pid))


def run_child(
    mode: str, workload: str, seed: int, deadline: float, probe: Optional[str] = None
) -> dict:
    """Run one pass in a fresh child; failures come back in the payload.

    ``probe`` is None (no host probe), "pinned" (child and probe on one CPU)
    or "free" (neither pinned).
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed),
    ]
    # A session of its own, so a hung child can be killed with its workers;
    # temporary files stay inside the checkout.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "TMPDIR": str(OUT)},
    )
    cpu = None
    if probe == "pinned" and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(proc.pid, {cpu})  # inherited by anything it forks
    host = _HostProbe(cpu)
    if probe is not None:
        host.start()
    sampler = _TreeSampler(proc.pid)
    if mode != "setup":  # set-up is timed to the millisecond; leave it alone
        sampler.start()
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += "\nkilled at the run's time limit (--seconds + RUN_SLACK_S)"
    finally:
        for thread in (sampler, host):
            thread.done.set()
            if thread.is_alive():
                thread.join()
    lines = stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        payload = None
    if payload is None:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        payload = {"failures": [f"{mode} child exited {proc.returncode}: {tail}"]}
    else:
        # The child's own peaks are exact; the sampler adds up its workers.
        payload["peak_rss_mb"] = max(sampler.peak_kb, payload["self_maxrss_kb"]) / 1024
        if probe is not None:
            payload["host_speed"] = host.speed(payload["window"])
            if payload["host_speed"] is None:
                payload = {"failures": [f"{mode} child: no host-speed probe in its window"]}
    payload["seed"] = seed
    payload["mode"] = mode
    return payload


def sub_seeds(workload, seed: int) -> List[int]:
    return [seed + SEED_STRIDE * j for j in range(workload.inputs)]


def measure(workload, seed: int, seconds: float, deadline: float):
    """--trace 0: calls round the run's inputs, then one set-up pass."""
    seeds = sub_seeds(workload, seed)
    probe = "pinned" if workload.cpus == 1 else "free"
    calls: List[dict] = []
    started = time.monotonic()
    # Every input once, then on while the next call should end within --seconds.
    while len(calls) < len(seeds) or (
        (time.monotonic() - started) * (len(calls) + 1) / len(calls) <= seconds
    ):
        input_seed = seeds[len(calls) % len(seeds)]
        calls.append(run_child("run", workload.name, input_seed, deadline, probe))
    setup = run_child("setup", workload.name, seed, deadline, "pinned")
    by_input: Dict[int, List[dict]] = {}
    for call in calls:
        if "wall_s" in call:
            by_input.setdefault(call["seed"], []).append(call)
    if not by_input or "setup_s" not in setup:
        return calls + [setup], None
    # Inputs whose every call failed are left out; the failures are counted.
    measured = [s for s in seeds if s in by_input]
    # Every time is scaled to the reference host by the probe beside it.
    walls = [
        statistics.median(c["wall_s"] * c["host_speed"] for c in by_input[s]) for s in measured
    ]
    setups = [
        statistics.median(times) * setup["host_speed"] for times in setup["setup_s"].values()
    ]
    # Packets and slowdown are fixed by the input; any of its calls gives them.
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.fmean(setups),
        "pkts_per_s": sum(by_input[s][0]["pkts"] for s in measured) / sum(walls),
        "peak_rss_mb": statistics.fmean(
            statistics.median(c["peak_rss_mb"] for c in by_input[s]) for s in measured
        ),
        "sim_p99_slowdown": statistics.fmean(
            by_input[s][0]["sim_p99_slowdown"] for s in measured
        ),
        "host_speed": statistics.median(c["host_speed"] for s in measured for c in by_input[s]),
    }
    return calls + [setup], metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(workload, seed: int, deadline: float):
    """--trace 1: span, reference and profile passes on the run's input."""
    spans = run_child("spans", workload.name, seed, deadline)
    passes = [spans]
    reference: Optional[dict] = None
    if workload.reference is not None:
        reference = run_child("reference", workload.name, seed, deadline)
        passes.append(reference)
        if "digest" in reference and reference["digest"] != spans.get("digest"):
            reference["failures"].append(
                f"{workload.name}: records differ from the reference run of the same input"
            )
    profile = run_child("profile", workload.name, seed, deadline)
    passes.append(profile)
    if profile.get("unmapped_modules"):
        profile["failures"].append(
            f"modules in no layer of layers.json: {profile['unmapped_modules']}"
        )
    if any("wall_s" not in p for p in passes):
        return passes, None

    from tracer import load_layer_map

    _layer_map, layers = load_layer_map()
    metrics: Dict[str, float] = {}
    total_self = sum(profile["self_time"].values())
    for layer in layers:
        metrics[f"{layer}.calls_per_pkt"] = _ratio(profile["calls"][layer], profile["pkts"])
        metrics[f"{layer}.self_share"] = _ratio(profile["self_time"][layer], total_self)
    metrics.update(spans["spans"])
    metrics["sim_p99_slowdown"] = spans["sim_p99_slowdown"]
    c = spans["counters"]
    for name, key in (
        ("engine.events_per_pkt", "events"),
        ("fabric.acks_per_pkt", "acks"),
        ("fabric.forwarded_per_pkt", "forwarded"),
        ("bfc.pauses_per_pkt", "pauses"),
        ("bfc.bloom_frames_per_pkt", "bloom_frames"),
        ("bfc.table_inserts_per_pkt", "table_inserts"),
        ("cc.cnps_per_pkt", "cnps"),
    ):
        metrics[name] = _ratio(c[key], c["pkts"])
    shard = spans.get("shard_stats") or {}
    events = [int(v) for v in (shard.get("events_per_shard") or {}).values()]
    metrics["shard.barriers"] = shard.get("barriers", 0)
    metrics["shard.boundary_pkts"] = shard.get("boundary_packets", 0)
    metrics["shard.event_imbalance"] = (
        _ratio(max(events), statistics.fmean(events)) if events else 0.0
    )
    metrics["shard.coord_wait_share"] = profile["coord_wait_share"] if shard else 0.0
    metrics["shard.speedup_vs_serial"] = (
        _ratio(reference["wall_s"], spans["wall_s"]) if shard and reference else 0.0
    )
    campaign = workload.name == "fig5a-campaign"
    metrics["campaign.trial_s_sum"] = spans["trial_s_sum"]
    metrics["campaign.slot_utilization"] = (
        _ratio(spans["trial_s_sum"], 2 * spans["wall_s"]) if campaign else 0.0
    )
    metrics["campaign.planner_vs_naive"] = (
        _ratio(spans["wall_s"], reference["wall_s"]) if campaign and reference else 0.0
    )
    metrics["trace.overhead_x"] = _ratio(profile["wall_s"], spans["wall_s"])
    return passes, metrics


def _stamp(passes: List[dict]) -> dict:
    backends = sorted({p["engine_backend"] for p in passes if "engine_backend" in p})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine_backend": backends[0] if len(backends) == 1 else backends,
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE", ""),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=sorted(CHILD_PASSES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    if args.trace:
        passes, metrics = measure_traced(workload, args.seed, deadline)
        section = "per_layer"
    else:
        passes, metrics = measure(workload, args.seed, args.seconds, deadline)
        section = "end_to_end"
    failures = [f for p in passes for f in p["failures"]]
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": _stamp(passes),
        "metrics": {
            name: {"value": value, "unit": units.get(name)}
            for name, value in (metrics or {}).items()
        },
        "failures": failures,
        "passes": passes,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    print(json.dumps(report))
    if metrics is None:
        print(f"perfbench: no measurement survived: {failures}", file=sys.stderr)
        return 1
    names = [m["name"] for m in spec[section]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"perfbench: BENCHMARK.json metrics {missing} not measured", file=sys.stderr)
        return 1
    runs = [p for p in passes if p["mode"] != "setup"]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(1 for p in runs if p["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
