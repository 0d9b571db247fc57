"""Spans for the traced pass: wrappers around kunzlab's public layer functions.

Nothing here changes kunzlab's code.  ``install`` replaces, in the already
imported kunzlab modules, each traced name by a wrapper that records a span
(name, start, end, parent, pass id, attrs) around every call.  A module that
imports a function by name (``stats`` imports ``genus_histogram`` from
``enumeration``) holds its own binding, so the wrapper goes on every module
that binds the same object.  A name that no longer exists is reported as
absent, and the metrics that need it read 0.

After the traced pass, ``run_probes`` makes the extra calls some layers need
(the serial depth split, serial counts, draining ``enumerate_words``, the
stressed depth-3 scan by length) as spans of their own, and checks that the
layer numbers add up exactly.  ``layer_metrics`` turns the spans into the per-layer
metrics.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

from workloads import STRESSED_TABLE_MAX

# (span name, defining module, attribute): the functions the traced pass wraps.
TRACED = (
    ("enumeration.count_words", "kunzlab.enumeration", "count_words"),
    ("enumeration.enumerate_words", "kunzlab.enumeration", "enumerate_words"),
    ("enumeration.genus_histogram", "kunzlab.enumeration", "genus_histogram"),
    ("enumeration.stressed3_genus_total", "kunzlab.enumeration",
     "stressed3_genus_total"),
    ("enumeration.tail_heavy_count", "kunzlab.enumeration", "tail_heavy_count"),
    ("enumeration.Pool", "kunzlab.enumeration", "Pool"),
    ("stats.genus_stats", "kunzlab.stats", "genus_stats"),
    ("graphs.hom_count", "kunzlab.graphs", "hom_count"),
    ("graphs.regularize", "kunzlab.graphs", "regularize"),
    ("bounds.check_c_monotone", "kunzlab.bounds", "check_c_monotone"),
)

# per-layer metric name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "enumeration.depth2.s": "s",
    "enumeration.depth2.words": "count",
    "enumeration.depth3.s": "s",
    "enumeration.depth3.words": "count",
    "enumeration.depth4plus.s": "s",
    "enumeration.depth4plus.words": "count",
    "enumeration.scan_serial.s": "s",
    "enumeration.parallel_gain": "ratio",
    "enumeration.pool.opened": "count",
    "enumeration.pool.workers_used": "count",
    "enumeration.pool.tasks": "count",
    "enumeration.pool.startup_s": "s",
    "enumeration.hist.s": "s",
    "enumeration.hist_over_count": "ratio",
    "enumeration.enum.s": "s",
    "enumeration.enum.words_per_s": "1/s",
    "enumeration.stressed3.s": "s",
    "enumeration.stressed3.max_j_s": "s",
    "enumeration.tail_heavy.s": "s",
    "enumeration.tail_heavy.calls": "count",
    "graphs.hom_count.s": "s",
    "graphs.hom_count.calls": "count",
    "graphs.hom_count.homs": "count",
    "graphs.regularize.s": "s",
    "bounds.check_c_monotone.s": "s",
    "bounds.check_c_monotone.comparisons": "count",
    "stats.moments.s": "s",
    "cli.overhead.s": "s",
    "verify.stressed_table.s": "s",
    "verify.constant_brackets.s": "s",
    "verify.med_identities.s": "s",
    "verify.hom_suite.s": "s",
    "verify.bound_dominance.s": "s",
    "refdata.load.s": "s",
    "trace.overhead_s": "s",
}

# metric-name prefix -> the traced names its value depends on
_REQUIRES = {
    "enumeration.depth": ("enumeration.count_words",),
    "enumeration.scan_serial": ("enumeration.count_words",),
    "enumeration.parallel_gain": ("enumeration.count_words",),
    "enumeration.pool.": ("enumeration.Pool",),
    "enumeration.hist": ("enumeration.genus_histogram",
                         "enumeration.count_words"),
    "enumeration.enum.": ("enumeration.enumerate_words",),
    "enumeration.stressed3": ("enumeration.stressed3_genus_total",),
    "enumeration.tail_heavy": ("enumeration.tail_heavy_count",),
    "graphs.hom_count": ("graphs.hom_count",),
    "graphs.regularize": ("graphs.regularize",),
    "bounds.check_c_monotone": ("bounds.check_c_monotone",),
    "stats.moments": ("stats.genus_stats", "enumeration.genus_histogram"),
}


class Tracer:
    """Spans kept in memory; ``pass_id`` tags the spans of the current phase."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id = "traced"
        self._stack: list[int] = []

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "parent": self.current(),
                "pass": self.pass_id, "start": perf_counter(), "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        if span["id"] in self._stack:
            self._stack.remove(span["id"])

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add(self, name: str, start: float, end: float, parent: int | None,
            **attrs) -> dict:
        """Record a finished span whose interval was measured elsewhere."""
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "pass": self.pass_id, "start": start, "end": end,
                "attrs": attrs}
        self.spans.append(span)
        return span


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (hi - lo) - covered
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _annotate(name: str, args: tuple, result) -> dict:
    """Counts recorded with a span, read from the call's arguments and result."""
    if name == "enumeration.count_words":
        return {"count": result}
    if name == "enumeration.genus_histogram":
        query = args[0] if args else None
        return {"mass": sum(result.values()),
                "frobenius": getattr(query, "frobenius", None)}
    if name == "graphs.hom_count":
        return {"homs": result}
    if name == "bounds.check_c_monotone":
        return {"comparisons": getattr(result, "sequence_comparisons", 0)
                + getattr(result, "interpolation_comparisons", 0)}
    return {}


def _wrap_call(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            span["attrs"].update(_annotate(name, args, result))
            return result
    return traced


def _wrap_stream(tracer: Tracer, name: str, fn):
    """Wrap a word stream; its span holds only the time spent inside it.

    The span starts at the first ``next`` and lasts as long as the stream
    itself ran, so the caller's work between items (formatting) stays the
    caller's self time.
    """
    def traced(*args, **kwargs):
        inner = iter(fn(*args, **kwargs))
        parent = tracer.current()
        first = None
        busy = 0.0
        items = 0
        try:
            while True:
                start = perf_counter()
                if first is None:
                    first = start
                try:
                    item = next(inner)
                except StopIteration:
                    busy += perf_counter() - start
                    return
                busy += perf_counter() - start
                items += 1
                yield item
        finally:
            if first is not None:
                tracer.add(name, first, first + busy, parent, items=items)
    return traced


def _call_with_pid(job):
    """Pool task: run the engine's task and report which worker ran it."""
    fn, arg = job
    return os.getpid(), fn(arg)


class TracedPool:
    """Stands in for ``multiprocessing.Pool`` where the engine opens pools.

    Records the start-up time, the tasks mapped, and the workers that
    actually ran a task (distinct worker pids), not the number requested.
    """

    def __init__(self, tracer: Tracer, real, *args, **kwargs):
        self._tracer = tracer
        self._span = tracer.begin("enumeration.pool")
        self._pids: set[int] = set()
        self._tasks = 0
        with tracer.span("enumeration.pool.startup"):
            self._pool = real(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._span["attrs"].update(workers_used=len(self._pids),
                                       tasks=self._tasks)
            self._tracer.end(self._span)

    def map(self, fn, iterable, chunksize=None):
        jobs = [(fn, item) for item in iterable]
        self._tasks += len(jobs)
        with self._tracer.span("enumeration.pool.map"):
            pairs = self._pool.map(_call_with_pid, jobs, chunksize)
        self._pids.update(pid for pid, _ in pairs)
        return [result for _, result in pairs]

    def __getattr__(self, attr):
        return getattr(self._pool, attr)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name in the loaded kunzlab modules.

    Returns the traced names that no longer exist (absent layers).
    """
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == "kunzlab" or key.startswith("kunzlab.")]
    absent = []
    for name, module_name, attr in TRACED:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            absent.append(name)
            continue
        if name == "enumeration.Pool":
            def wrapper(*args, _real=original, **kwargs):
                return TracedPool(tracer, _real, *args, **kwargs)
        elif name == "enumeration.enumerate_words":
            wrapper = _wrap_stream(tracer, name, original)
        else:
            wrapper = _wrap_call(tracer, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return absent


# ---------------------------------------------------------------------------
# probes: the extra calls made after the traced pass
# ---------------------------------------------------------------------------


def _bucket(depth: int) -> str:
    return "depth2" if depth <= 2 else "depth3" if depth == 3 else "depth4plus"


def run_probes(tracer: Tracer, workload: str, results: list, kz,
               table1: dict[int, int],
               absent: list[str]) -> list[str | None]:
    """Make the probe calls and return one entry per exactness guard.

    ``results`` holds (op, stdout) for the traced pass; ``kz`` is the
    imported ``kunzlab`` package.  Each returned entry is ``None`` for a
    guard that held, or an error string: the per-depth words must sum to the
    undivided count, and histogram mass and drained words must equal the
    count.
    """
    eng = sys.modules["kunzlab.enumeration"]
    tracer.pass_id = "probe"
    guards: list[str | None] = []
    have_count = "enumeration.count_words" not in absent
    if workload in ("frob-count", "fm-grid") and have_count:
        for op, stdout in results:
            f, m = op.flag("f"), op.flag("m")
            want = json.loads(stdout)["count"]
            query = kz.CountQuery(frobenius=f,
                                  length=None if m is None else m - 1)
            total = 0
            for depth in range(1, (f + 1) // 2 + 2):
                with tracer.span("probe.depth", bucket=_bucket(depth),
                                 depth=depth) as span:
                    words = eng.count_words(replace(query, depth_exact=depth))
                span["attrs"]["words"] = words
                total += words
            guards.append(None if total == want else
                          f"{op.name}: engine {want}, depth split {total}")
    if workload == "dist-enum":
        masses = {s["attrs"].get("frobenius"): s["attrs"].get("mass")
                  for s in tracer.spans
                  if s["name"] == "enumeration.genus_histogram"
                  and s["pass"] == "traced"}
        for op, stdout in results:
            f = op.flag("f")
            query = kz.CountQuery(frobenius=f)
            if op.command == "dist" and have_count:
                with tracer.span("probe.count_serial"):
                    want = eng.count_words(query)
                mass = masses.get(f)
                guards.append(None if mass is None or mass == want else
                              f"{op.name}: histogram mass {mass}, count {want}")
            elif op.command == "enumerate" and \
                    "enumeration.enumerate_words" not in absent:
                with tracer.span("probe.enum") as span:
                    words = sum(1 for _ in eng.enumerate_words(query))
                span["attrs"]["words"] = words
                want = len(json.loads(stdout)["words"])
                guards.append(None if words == want else
                              f"{op.name}: drained {words}, printed {want}")
    if workload == "certify" and \
            "enumeration.stressed3_genus_total" not in absent:
        cache = getattr(getattr(eng, "_stressed3_scan", None),
                        "cache_clear", None)
        if cache is not None:
            cache()  # the traced pass filled it; time the scans cold
        for j in range(1, STRESSED_TABLE_MAX + 1):
            with tracer.span("probe.stressed3", j=j):
                count = eng.stressed3_genus_total(j)[0]
            guards.append(None if count == table1[j] else
                          f"stressed3_genus_total({j}) = {count}, "
                          f"table1 says {table1[j]}")
    tracer.pass_id = "traced"
    return guards


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[dict], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics (all of ``PER_LAYER`` but the tracing overhead)."""
    selfs = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def named(name: str, phase: str = "traced") -> list[dict]:
        return [s for s in spans if s["name"] == name and s["pass"] == phase]

    def total(group: list[dict]) -> float:
        return sum(duration(s) for s in group)

    def attr_sum(group: list[dict], key: str) -> int:
        return sum(s["attrs"].get(key) or 0 for s in group)

    out: dict[str, float] = {}
    depth_spans = named("probe.depth", "probe")
    for bucket in ("depth2", "depth3", "depth4plus"):
        group = [s for s in depth_spans if s["attrs"]["bucket"] == bucket]
        out[f"enumeration.{bucket}.s"] = total(group)
        out[f"enumeration.{bucket}.words"] = attr_sum(group, "words")
    # the serial depth-split calls partition each query exactly (the guard
    # checks it), so together they are the query's single-worker scan
    serial = total(depth_spans)
    engine = total([s for s in named("enumeration.count_words")
                    if s["parent"] is not None
                    and by_id[s["parent"]]["name"] == "cli.op"])
    out["enumeration.scan_serial.s"] = serial
    out["enumeration.parallel_gain"] = serial / engine if serial and engine else 0.0

    pools = named("enumeration.pool")
    out["enumeration.pool.opened"] = len(pools)
    out["enumeration.pool.workers_used"] = max(
        (s["attrs"].get("workers_used", 0) for s in pools), default=0)
    out["enumeration.pool.tasks"] = attr_sum(pools, "tasks")
    out["enumeration.pool.startup_s"] = total(named("enumeration.pool.startup"))

    hist = total(named("enumeration.genus_histogram"))
    counted = total(named("probe.count_serial", "probe"))
    out["enumeration.hist.s"] = hist
    out["enumeration.hist_over_count"] = hist / counted if hist and counted else 0.0

    enum = named("probe.enum", "probe")
    out["enumeration.enum.s"] = total(enum)
    out["enumeration.enum.words_per_s"] = (
        attr_sum(enum, "words") / total(enum) if enum else 0.0)

    stressed = named("probe.stressed3", "probe")
    out["enumeration.stressed3.s"] = total(stressed)
    out["enumeration.stressed3.max_j_s"] = max(map(duration, stressed),
                                               default=0.0)
    tail = named("enumeration.tail_heavy_count")
    out["enumeration.tail_heavy.s"] = total(tail)
    out["enumeration.tail_heavy.calls"] = len(tail)

    homs = named("graphs.hom_count")
    out["graphs.hom_count.s"] = total(homs)
    out["graphs.hom_count.calls"] = len(homs)
    out["graphs.hom_count.homs"] = attr_sum(homs, "homs")
    out["graphs.regularize.s"] = total(named("graphs.regularize"))

    mono = named("bounds.check_c_monotone")
    out["bounds.check_c_monotone.s"] = total(mono)
    out["bounds.check_c_monotone.comparisons"] = attr_sum(mono, "comparisons")

    out["stats.moments.s"] = sum(selfs[s["id"]]
                                 for s in named("stats.genus_stats"))
    out["cli.overhead.s"] = sum(selfs[s["id"]] for s in named("cli.op"))
    for metric in PER_LAYER:
        if metric.startswith("verify."):
            check = "check_" + metric.split(".")[1]
            out[metric] = sum(s["attrs"].get("elapsed", 0.0)
                              for s in named(f"verify.{check}"))
    out["refdata.load.s"] = total(named("refdata.load"))
    for metric in absent_metrics(absent):
        out[metric] = 0.0
    return out


def absent_metrics(absent: list[str]) -> list[str]:
    """The per-layer metrics a missing traced name leaves without a value."""
    return [metric for metric in PER_LAYER
            for prefix, needs in _REQUIRES.items()
            if metric.startswith(prefix) and any(n in absent for n in needs)]
