"""Tracing for the traced benchmark run: spans, child-process collection and
profiles grouped by layer.

Spans are recorded by wrappers this module puts around public calls of the
simulator (``run_experiment``, ``build_simulation``, ``Topology.start_flows``,
``Simulator.run``) and around the methods of the result sink the benchmark
passes in.  Nothing under ``src/`` is edited: the wrappers replace module and
class attributes inside the benchmark's own child process only.

Shard workers and campaign pool workers are forked from that process, so they
inherit the wrappers.  :class:`ChildCollector` hooks ``multiprocessing``'s
after-fork callbacks so each forked worker starts a fresh span list (and,
when profiling, its own ``cProfile`` profiler) and writes both to a file when
it exits; the benchmark process merges them.
"""

from __future__ import annotations

import cProfile
import functools
import json
import multiprocessing.util
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LAYER_FILE = Path(__file__).with_name("layers.json")
#: Module that owns the ``_accelcore`` C extension (REPRO_ENGINE=accel).
ACCEL_MODULE = "repro.sim.engine_accel"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same process's span list, -1 for a root
    child_time: float = 0.0  # time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class SpanRecorder:
    """Spans of one process, kept in memory until the process ends."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def instrument(recorder: SpanRecorder) -> None:
    """Put span wrappers around the simulator's public layer boundaries."""
    from repro.experiments import runner
    from repro.sim import engine
    from repro.topology.topology import Topology

    runner.run_experiment = recorder.wrap("run_experiment", runner.run_experiment)
    runner.build_simulation = recorder.wrap("build_simulation", runner.build_simulation)
    Topology.start_flows = recorder.wrap("start_flows", Topology.start_flows)
    for cls in {engine.PureSimulator, engine.Simulator}:
        cls.run = recorder.wrap("Simulator.run", cls.run)


class TimedSink:
    """A result sink that forwards to another and times every call.

    ``record_s`` covers ``on_flow_record`` and the sample callbacks;
    ``finalize_s`` covers ``finalize``.  It observes only, like every sink.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.record_s = 0.0
        self.finalize_s = 0.0

    @property
    def results_ref(self):
        return self.inner.results_ref

    def _timed(self, method, *args):
        started = time.perf_counter()
        method(*args)
        self.record_s += time.perf_counter() - started

    def on_flow_record(self, record) -> None:
        self._timed(self.inner.on_flow_record, record)

    def on_buffer_sample(self, switch_name, occupancy_bytes) -> None:
        self._timed(self.inner.on_buffer_sample, switch_name, occupancy_bytes)

    def on_queue_sample(self, backlog_bytes) -> None:
        self._timed(self.inner.on_queue_sample, backlog_bytes)

    def on_occupied_sample(self, count) -> None:
        self._timed(self.inner.on_occupied_sample, count)

    def finalize(self, extras=None):
        started = time.perf_counter()
        try:
            return self.inner.finalize(extras)
        finally:
            self.finalize_s += time.perf_counter() - started


class ChildCollector:
    """Collect spans (and optionally a profile) from forked worker processes.

    Registered with ``multiprocessing.util.register_after_fork``: in every
    process that ``multiprocessing`` forks from here, the recorder is reset,
    a profiler is started if asked for, and a finalizer writes both to
    ``out_dir/child-<pid>.pkl`` when the worker exits normally.
    """

    def __init__(self, out_dir: Path, recorder: SpanRecorder, profile: bool) -> None:
        self.out_dir = Path(out_dir)
        self.recorder = recorder
        self.profile = profile
        self.out_dir.mkdir(parents=True, exist_ok=True)
        multiprocessing.util.register_after_fork(self, ChildCollector._after_fork)

    def _after_fork(self) -> None:
        self.recorder.reset()
        profiler = None
        if self.profile:
            profiler = cProfile.Profile()
            profiler.enable()
        multiprocessing.util.Finalize(None, self._dump, args=(profiler,), exitpriority=100)

    def _dump(self, profiler: Optional[cProfile.Profile]) -> None:
        rows = None
        if profiler is not None:
            profiler.disable()
            rows = profile_rows(profiler)
        path = self.out_dir / f"child-{os.getpid()}.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"spans": self.recorder.spans, "profile": rows}, handle)

    def collected(self) -> List[Dict[str, object]]:
        dumps = []
        for path in sorted(self.out_dir.glob("child-*.pkl")):
            with open(path, "rb") as handle:
                dumps.append(pickle.load(handle))
        return dumps


def span_totals(span_lists: List[List[Span]]) -> Dict[str, Tuple[float, float]]:
    """{span name: (summed duration, summed self time)} over all processes."""
    totals: Dict[str, Tuple[float, float]] = {}
    for spans in span_lists:
        for span in spans:
            duration, self_time = totals.get(span.name, (0.0, 0.0))
            totals[span.name] = (duration + span.duration, self_time + span.self_time)
    return totals


# -- profiles grouped by layer ---------------------------------------------------


def load_layer_map() -> Tuple[Dict[str, str], List[str]]:
    data = json.loads(LAYER_FILE.read_text(encoding="utf-8"))
    return data["layers"], data["order"]


def module_of(filename: str) -> Optional[str]:
    """Dotted ``repro.*`` module name of a profiled file, or None if outside."""
    import repro

    try:
        rel = Path(filename).resolve().relative_to(Path(repro.__file__).resolve().parents[1])
    except (ValueError, OSError):
        return None
    if rel.suffix != ".py" or not rel.parts or rel.parts[0] != "repro":
        return None
    return ".".join(rel.with_suffix("").parts)


def layer_of(module: Optional[str], layer_map: Dict[str, str]) -> Optional[str]:
    """Layer of a module by longest dotted prefix; 'builtins' outside repro."""
    if module is None:
        return "builtins"
    best = None
    for prefix, layer in layer_map.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


#: C functions a process blocks in while it waits on pipes, locks or children.
_WAIT_BUILTINS = (
    "posix.read", "posix.waitpid", "'poll' of 'select.poll'", "select.select",
    "'acquire' of '_thread", "time.sleep",
)


def _generated_code_modules() -> Dict[int, str]:
    """{id(code): module} for methods generated from strings in repro classes.

    ``dataclasses`` builds ``__init__``, ``__eq__`` and friends with ``exec``,
    so their code claims the file ``<string>``; they belong to the module of
    the class that owns them.
    """
    import sys

    owners: Dict[int, str] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for obj in list(vars(module).values()):
            if not isinstance(obj, type) or obj.__module__ != name:
                continue
            for attr in vars(obj).values():
                code = getattr(attr, "__code__", None)
                if code is not None and code.co_filename.startswith("<"):
                    owners[id(code)] = name
    return owners


def profile_rows(profiler: cProfile.Profile) -> List[Tuple[Optional[str], bool, int, float]]:
    """(module or None, blocked?, calls, self seconds) per profiled function.

    Read from ``getstats()`` rather than ``pstats``: pstats keys functions by
    (file, line, name), which merges every dataclass ``__init__`` into one
    entry and keeps an arbitrary one of them.
    """
    generated = _generated_code_modules()
    modules: Dict[str, Optional[str]] = {}
    rows = []
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            # The compiled engine's methods belong to the engine layer.
            module = ACCEL_MODULE if "'_accelcore." in code else None
            blocked = any(name in code for name in _WAIT_BUILTINS)
        else:
            filename = code.co_filename
            if filename not in modules:
                modules[filename] = module_of(filename)
            module = modules[filename] or generated.get(id(code))
            blocked = False
        rows.append((module, blocked, entry.callcount, entry.inlinetime))
    return rows


@dataclass
class LayerProfile:
    """Calls and busy self time per layer; blocked time is left out."""

    calls: Dict[str, int]
    self_time: Dict[str, float]
    unmapped: List[str]


def group_by_layer(row_lists) -> LayerProfile:
    """Sum the profile rows of several processes per layer."""
    layer_map, order = load_layer_map()
    calls = {layer: 0 for layer in order}
    self_time = {layer: 0.0 for layer in order}
    unmapped = set()
    for rows in row_lists:
        for module, blocked, count, seconds in rows:
            layer = layer_of(module, layer_map)
            if layer is None:
                unmapped.add(module)
                continue
            calls[layer] += count
            if not blocked:
                self_time[layer] += seconds
    return LayerProfile(calls, self_time, sorted(unmapped))


def wait_share(rows) -> float:
    """Share of one process's profiled self time spent blocked."""
    total = sum(seconds for _m, _b, _c, seconds in rows)
    waiting = sum(seconds for _m, blocked, _c, seconds in rows if blocked)
    return waiting / total if total else 0.0
