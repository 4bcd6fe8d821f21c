"""Per-layer tracing from outside the program.

Wraps public functions of switchq's modules at every binding site (module
attribute and every ``from .x import name`` copy in other switchq modules),
records a span per call with its parent, and aggregates calls, self time
(span time minus child spans) and work counts per name.  Calls of HOT names,
and calls made inside them, are only aggregated: each runs 100k+ times per
rep, and a span apiece would swamp memory and the timings.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _gap_slots(args, kwargs) -> int:
    per_t = _arg(args, kwargs, 3, "slots_per_t", 200_000)
    return sum(max(1, per_t // T) * T for T in _arg(args, kwargs, 1, "t_list"))


# name -> (metrics reported, workloads that must reach it).  The units of
# the work behind ns_per_* metrics and the keys behind distinct_ratio are
# given by WORK and KEY below.  Workloads not listed report 0 for the name.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "channels.generate_paths": (("calls", "self_s", "ns_per_slot"), ("sweep", "saturated")),
    "mdp.enumerate_vertices": (("calls", "self_s"), ("saturated", "exact")),
    "mdp.stationary_distribution": (("calls", "self_s", "distinct_ratio"), ("saturated", "exact")),
    "mdp.rate_asymptotic_std": (("calls", "self_s"), ("saturated",)),
    "region.contains": (("calls", "self_s"), ("sweep",)),
    "region.corner_points": (("calls", "self_s", "distinct_ratio"), ("sweep", "exact")),
    "region.fbdc_corner_map": (("calls", "self_s"), ("sweep",)),
    "region.myopic_corner_map": (("calls", "self_s"), ("exact",)),
    "region.region_from_vertices": (("self_s",), ("exact",)),
    "region.closed_form_region": (("calls",), ("sweep", "exact")),
    "policies.fbdc_frame_start": (("calls", "self_s"), ("sweep",)),
    "sim.run": (("calls", "self_s", "ns_per_slot"), ("sweep", "saturated")),
    "sim.saturated_rates_batch": (("self_s", "ns_per_table_slot"), ("saturated",)),
    "sim.saturated_rate": (("calls", "self_s"), ("saturated",)),
    "experiments.sweep": (("self_s",), ("sweep",)),
    "experiments.grid_points": (("self_s",), ("sweep",)),
    "experiments.iid_suite": (("self_s",), ("sweep",)),
    "experiments.verify_psi": (("self_s",), ("exact",)),
    "experiments.psi_value": (("calls", "self_s"), ("exact",)),
    "experiments.throughput_gap": (("self_s", "ns_per_slot"), ("saturated",)),
    "experiments.rows_to_csv": (("self_s",), ("sweep", "saturated", "exact")),
    "cli.main": (("calls", "self_s"), ("sweep", "saturated", "exact")),
}

WORK = {
    "channels.generate_paths": lambda a, k: _arg(a, k, 1, "horizon"),
    "sim.run": lambda a, k: _arg(a, k, 0, "config").horizon,
    "sim.saturated_rates_batch": lambda a, k: len(_arg(a, k, 0, "tables"))
    * (_arg(a, k, 4, "warmup", 0) + _arg(a, k, 2, "horizon")),
    "experiments.throughput_gap": _gap_slots,
}

KEY = {
    "mdp.stationary_distribution": lambda a, k: (
        _arg(a, k, 0, "kernel").tobytes(), tuple(_arg(a, k, 1, "policy"))),
    "region.corner_points": lambda a, k: _arg(a, k, 0, "epsilon"),
}

HOT = frozenset({"experiments.psi_value", "region.corner_points", "policies.fbdc_frame_start"})

UNITS = {"calls": "count", "self_s": "s", "ns_per_slot": "ns", "ns_per_table_slot": "ns",
         "distinct_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = [(f"{name}.{m}", UNITS[m]) for name, (metrics, _) in LAYERS.items() for m in metrics]
    return out + [("trace.overhead_s", "s")]


@dataclass
class Stat:
    calls: int = 0
    self_time: float = 0.0
    work: int = 0
    keys: set = field(default_factory=set)


class Tracer:
    """Spans and per-name aggregates of the wrapped calls; install() and remove() toggle it."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child time, span id or None] per open call
        self._hot_depth = 0
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset_stats(self) -> None:
        self.stats = {name: Stat() for name in LAYERS}

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        key = KEY.get(name)
        hot = name in HOT
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hot:
                self._hot_depth += 1
            span_id = None
            if not self._hot_depth:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if hot:
                    self._hot_depth -= 1
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stat = self.stats[name]
                stat.calls += 1
                stat.self_time += duration - frame[0]
                if work is not None:
                    stat.work += work(args, kwargs)
                if key is not None:
                    stat.keys.add(key(args, kwargs))
                if span_id is not None:
                    parent_id = parent[1] if parent is not None else 0
                    self.spans.append((span_id, parent_id, name, start - self._t0, end - self._t0))

        return wrapper

    @contextlib.contextmanager
    def root_span(self, name: str):
        """A parentless span (one rep) that parents the wrapped calls made inside it."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([0.0, span_id])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, 0, name, start - self._t0, end - self._t0))

    def install(self) -> None:
        """Replace each layer function at every switchq binding site of it."""
        self.reset_stats()
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "switchq" or n.startswith("switchq.")]
        for name in LAYERS:
            mod_name, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"switchq.{mod_name}"), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patches.append((module, binding, original))

    def remove(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    def rep_metrics(self, workload: str) -> dict[str, float]:
        """Per-layer metrics of the stats gathered since the last reset.

        Raises AssertionError when a present layer the map says this
        workload reaches recorded no call.
        """
        out: dict[str, float] = {}
        for name, (metrics, reached_by) in LAYERS.items():
            if name in self.absent:
                continue
            s = self.stats[name]
            if workload in reached_by and s.calls == 0:
                raise AssertionError(f"layer {name} recorded no call on workload {workload}")
            for m in metrics:
                if m == "calls":
                    value = s.calls
                elif m == "self_s":
                    value = s.self_time
                elif m == "distinct_ratio":
                    value = len(s.keys) / s.calls if s.calls else 0.0
                else:  # ns_per_slot, ns_per_table_slot
                    value = s.self_time * 1e9 / s.work if s.work else 0.0
                out[f"{name}.{m}"] = value
        return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
