"""Spans, the layer probe, and the per-layer table.

The package is timed only from outside: a span is recorded around each call
the benchmark makes into a package module, and the probe times single public
calls on a sample of the workload's own inputs. A metric whose function the
workload calls comes from the traced run's spans; on a workload that does not
call it, the same span name is filled by the probe, so every workload reports
every layer. The table says which source each value came from.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from expert_spread import config, discretize, search, transforms
from expert_spread.bounds import certify_upper_bound

import workloads as wl

PROBE_SAMPLE = 12
PROBE_ROUNDS = 3
PROBE_N = 16

# (metric, span name, nanoseconds per unit, unit)
SPAN_METRICS = (
    ("config.load_config_us", "config.load_config", 1e3, "us"),
    ("config.dump_config_us", "config.dump_config", 1e3, "us"),
    ("config.make_configuration_us", "config.make_configuration", 1e3, "us"),
    ("config.hash_us", "config.hash", 1e3, "us"),
    ("config.compute_stats_cold_us", "config.compute_stats_cold", 1e3, "us"),
    ("config.compute_stats_hit_us", "config.compute_stats_hit", 1e3, "us"),
    ("config.normalize_us", "config.normalize", 1e3, "us"),
    ("config.verify_checks_us", "config.verify_checks", 1e3, "us"),
    ("transforms.reduce_ms", "transforms.reduce", 1e6, "ms"),
    ("transforms.augment_us", "transforms.augment", 1e3, "us"),
    ("transforms.zigzag_normalize_us", "transforms.zigzag_normalize", 1e3, "us"),
    ("transforms.canonicalize_us", "transforms.canonicalize", 1e3, "us"),
    ("bounds.certify_upper_bound_us", "bounds.certify_upper_bound", 1e3, "us"),
    ("search.exhaustive_search_ms", "search.exhaustive_search", 1e6, "ms"),
    ("search.hill_climb_ms", "search.hill_climb", 1e6, "ms"),
    ("discretize.load_space_us", "discretize.load_space", 1e3, "us"),
    ("discretize.spread_probability_us", "discretize.spread_probability", 1e3, "us"),
    ("discretize.grid_coarsen_us", "discretize.grid_coarsen", 1e3, "us"),
    ("discretize.threshold_probability_us", "discretize.threshold_probability", 1e3, "us"),
)
# (metric, counter name): mean of the counter per recording
COUNT_METRICS = (
    ("transforms.steps_per_reduce", "transforms.steps"),
    ("search.vectors_per_op", "search.vectors"),
    ("discretize.coarse_cells_per_op", "discretize.coarse_cells"),
)
MODULES = ("config", "bounds", "transforms", "search", "discretize", "cli")
METRIC_NAMES = (
    *(m for m, *_ in SPAN_METRICS),
    *(m for m, _ in COUNT_METRICS),
    "search.us_per_vector",
    "config.stats_calls_per_op",
    "config.stats_hit_ratio",
    "config.stats_cache_entries",
    "cli.import_ms",
    "trace.overhead_ratio",
)


class Tracer:
    """Spans kept in memory as (id, parent, op, name, start_ns, end_ns)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.errors: Counter = Counter()
        self.op = None
        self._next = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counts.setdefault(key, []).append(value)

    def durations(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fp.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name, "start_ns": start, "end_ns": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.sid = t._next
        t._next += 1
        self.parent = t.stack[-1] if t.stack else None
        t.stack.append(self.sid)
        self.start = time.perf_counter_ns()

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter_ns()
        t = self.tracer
        t.stack.pop()
        t.spans.append((self.sid, self.parent, t.op, self.name, self.start, end))
        if exc is not None and not getattr(exc, "_bench_counted", False):
            # the innermost span an exception leaves names the module that raised
            exc._bench_counted = True
            t.errors[self.name.split(".")[0]] += 1


@contextmanager
def _carry_on(tracer: Tracer, module: str):
    """Count a failing probe call against ``module`` and go on with the next input."""
    try:
        yield
    except Exception as exc:  # the probe reports failures as counts, not as a crash
        if not getattr(exc, "_bench_counted", False):
            tracer.errors[module] += 1


def _timed(tracer: Tracer, name: str, fn, *args, cold: bool = False):
    if cold:
        config.compute_stats.cache_clear()
    with tracer.span(name):
        return fn(*args)


def probe(w: wl.Workload, items: list, span_names: set) -> Tracer:
    """Time each module's public calls on a sample of the workload's inputs.

    Calls whose span name the traced run already recorded are skipped. Every
    call that computes statistics is made cold: the memo is cleared first.
    """
    tracer = Tracer()
    tracer.op = "probe"
    cfgs, space_texts = w.sample(items, PROBE_SAMPLE)
    reducible = [c for c in cfgs if c.delta < wl.HALF and wl.config_spread(c) > 0]
    deltas = sorted({c.delta for c in cfgs})[:3]

    def want(name: str) -> bool:
        return name not in span_names

    for _ in range(PROBE_ROUNDS):
        for cfg in cfgs:
            masses = {
                (k, j): (c.a_mass, c.ac_mass)
                for k, col in enumerate(cfg.cells, 1)
                for j, c in enumerate(col, 1)
            }
            with _carry_on(tracer, "config"):
                _timed(tracer, "config.make_configuration", config.make_configuration, cfg.delta, cfg.n_cols, cfg.n_rows, masses)
                _timed(tracer, "config.hash", hash, cfg)
                # a raw input may have zero lines, which statistics reject; normalize drops them
                cfg = _timed(tracer, "config.normalize", config.normalize, cfg)
                _timed(tracer, "config.compute_stats_cold", config.compute_stats, cfg, cold=True)
                _timed(tracer, "config.compute_stats_hit", config.compute_stats, cfg)
                if want("config.dump_config") or want("config.load_config"):
                    buf = io.StringIO()
                    _timed(tracer, "config.dump_config", config.dump_config, cfg, buf)
                    _timed(tracer, "config.load_config", config.load_config, io.StringIO(buf.getvalue()))
                if want("config.verify_checks"):
                    with tracer.span("config.verify_checks"):
                        config.overlap_violations(cfg)
                        config.separation_violations(cfg)
                        config.pitman_inclusion_violations(cfg)
        for cfg in reducible:
            with _carry_on(tracer, "transforms"):
                start = config.normalize(cfg)
                grown = _timed(tracer, "transforms.augment", transforms.augment, start, wl.EPS, cold=True)
                _timed(tracer, "transforms.zigzag_normalize", transforms.zigzag_normalize, start, cold=True)
                _timed(tracer, "transforms.canonicalize", transforms.canonicalize, grown, cold=True)
                if want("transforms.reduce") or want("bounds.certify_upper_bound"):
                    result = _timed(tracer, "transforms.reduce", transforms.reduce, cfg, wl.EPS, cold=True)
                    tracer.count({"transforms.steps": len(result["trace"])})
                    _timed(tracer, "bounds.certify_upper_bound", certify_upper_bound, result["out"])
        if want("discretize.load_space"):
            for text, cfg in zip(space_texts, cfgs):
                threshold = 1 - cfg.delta
                with _carry_on(tracer, "discretize"):
                    space = _timed(tracer, "discretize.load_space", discretize.load_space, io.StringIO(text))
                    _timed(tracer, "discretize.spread_probability", discretize.spread_probability, space, threshold)
                    coarse = _timed(tracer, "discretize.grid_coarsen", discretize.grid_coarsen, space, PROBE_N, cfg.delta, cold=True)["cfg"]
                    tracer.count({"discretize.coarse_cells": coarse.n_cols * coarse.n_rows})
                    _timed(tracer, "discretize.threshold_probability", discretize.threshold_probability, coarse, threshold - Fraction(2, PROBE_N))
        for i, delta in enumerate(deltas):
            for name, fn, args in (
                ("search.exhaustive_search", search.exhaustive_search, (delta, 2, 2, 6)),
                ("search.hill_climb", search.hill_climb, (delta, 2, 2, 1000, i)),
            ):
                if want(name):
                    with _carry_on(tracer, "search"):
                        res = _timed(tracer, name, fn, *args)
                        tracer.count({"search.vectors": res.configs_evaluated})
    return tracer


def table(traced: Tracer, probed: Tracer, cache: dict, ops: int, import_ms: list[float], overhead: float) -> dict:
    """The per-layer metrics: ``{name: {"value", "unit", "source", "n"}}``."""
    rows = {}
    for metric, name, scale, unit in SPAN_METRICS:
        for source, tracer in (("span", traced), ("probe", probed)):
            durations = tracer.durations(name)
            if durations:
                rows[metric] = {"value": statistics.median(durations) / scale, "unit": unit, "source": source, "n": len(durations)}
                break
    for metric, name in COUNT_METRICS:
        for source, tracer in (("count", traced), ("probe count", probed)):
            values = tracer.counts.get(name)
            if values:
                rows[metric] = {"value": sum(values) / len(values), "unit": "count", "source": source, "n": len(values)}
                break
    for source, tracer in (("span", traced), ("probe", probed)):
        vectors = tracer.counts.get("search.vectors")
        if vectors:
            busy = sum(tracer.durations("search.exhaustive_search") + tracer.durations("search.hill_climb"))
            rows["search.us_per_vector"] = {"value": busy / 1e3 / sum(vectors), "unit": "us", "source": source, "n": len(vectors)}
            break
    calls = cache["hits"] + cache["misses"]
    rows["config.stats_calls_per_op"] = {"value": calls / ops, "unit": "count", "source": "cache_info", "n": ops}
    rows["config.stats_hit_ratio"] = {"value": cache["hits"] / calls if calls else 0.0, "unit": "ratio", "source": "cache_info", "n": calls}
    rows["config.stats_cache_entries"] = {"value": cache["currsize"], "unit": "count", "source": "cache_info", "n": 1}
    rows["cli.import_ms"] = {"value": statistics.median(import_ms), "unit": "ms", "source": "spawn", "n": len(import_ms)}
    rows["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio", "source": "traced/untraced", "n": 2}
    return rows


def module_errors(traced: Tracer, probed: Tracer) -> dict:
    """Exceptions per module, by the innermost span they left."""
    return {m: traced.errors[m] + probed.errors[m] for m in MODULES}
