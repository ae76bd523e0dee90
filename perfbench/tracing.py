"""Layer spans recorded from outside the program.

The tracer wraps public functions of the ``healthmarkov`` modules at every
place the program looks them up: each loaded ``healthmarkov`` module whose
attribute *is* the original function gets the wrapper, so names imported
with ``from .x import f`` are traced as well as ``x.f`` lookups.  A span
records its layer metric, parent span, start, duration and self time (the
duration minus its child spans), plus counts taken from the call's
arguments and result.  Spans stay in memory; ``dump`` writes them as JSON
lines when a process is done.

``parse_claims`` is a lazy generator, so its span is the summed time of
its ``next`` calls, attributed to the span that consumed it.
"""

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import time

RUN_ID_ENV = "PERFBENCH_RUN_ID"
PARENT_ENV = "PERFBENCH_PARENT_SPAN"
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


def _n_claims(args, kwargs, result):
    return {"synthetic.claims_rows": result}


def _n_paths(args, kwargs, result):
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[4]
    return {"synthetic.paths": 5 ** horizon}


def _n_person_years(args, kwargs, result):
    return {"ingest.person_years": len(result[0])}


def _n_cache_rows(args, kwargs, result):
    return {"panel.cache_rows": result}


def _one(name):
    return lambda args, kwargs, result: {name: 1}


def _n_cells(args, kwargs, result):
    return {"kernels.cells": int(args[0].size)}


def _ar_outcome(args, kwargs, result):
    return {"estimate.ar_fits" if result.available else "estimate.ar_unavailable": 1}


def _n_matvecs(args, kwargs, result):
    return {"lifted.projections": 1, "lifted.matvecs": result.horizon}


def _n_steps(args, kwargs, result):
    return {"persistency.steps": len(result.ages) - 1}


#: (module, attribute, time metric, counts from (args, kwargs, result)).  Several
#: functions may share one time metric; self times are summed per metric.
TARGETS = (
    ("healthmarkov.cli", "main", "cli.self_s", _one("cli.commands")),
    ("healthmarkov.synthetic", "write_claims", "synthetic.write_claims_s", _n_claims),
    ("healthmarkov.synthetic", "generate_panel", "synthetic.generate_panel_s", None),
    ("healthmarkov.synthetic", "enumerate_expectation", "synthetic.enumerate_s", _n_paths),
    ("healthmarkov.ingest", "parse_claims", "ingest.parse_s", None),
    ("healthmarkov.ingest", "aggregate_person_years", "ingest.aggregate_s", _n_person_years),
    ("healthmarkov.panel", "build_panel", "panel.build_s", None),
    ("healthmarkov.panel", "filter_cohort", "panel.filter_s", None),
    ("healthmarkov.panel", "Panel.write_cache", "panel.write_cache_s", _n_cache_rows),
    ("healthmarkov.panel", "Panel.read_cache", "panel.read_cache_s", _one("panel.read_cache_calls")),
    ("healthmarkov.kernels", "pair_counts", "kernels.pair_counts_s", _n_cells),
    ("healthmarkov.kernels", "triple_counts", "kernels.triple_counts_s", _n_cells),
    ("healthmarkov.kernels", "simulate_paths", "kernels.simulate_paths_s", None),
    ("healthmarkov.estimate", "estimate_order1_family", "estimate.family_s", None),
    ("healthmarkov.estimate", "estimate_order2_family", "estimate.family_s", None),
    ("healthmarkov.estimate", "shock_frequency", "estimate.frequency_s", None),
    ("healthmarkov.estimate", "multi_year_state_frequency", "estimate.retention_s", None),
    ("healthmarkov.estimate", "conditional_cost_quantiles", "estimate.cost_summary_s", None),
    ("healthmarkov.estimate", "exceedance_proportions", "estimate.cost_summary_s", None),
    ("healthmarkov.estimate", "state_fractions", "estimate.cost_summary_s", None),
    ("healthmarkov.estimate", "ar_regression", "estimate.ar_s", _ar_outcome),
    ("healthmarkov.lifted", "lift", "lifted.lift_s", None),
    ("healthmarkov.lifted", "lift_family", "lifted.lift_s", None),
    ("healthmarkov.lifted", "project_cumulative", "lifted.project_s", _n_matvecs),
    ("healthmarkov.persistency", "persistency_difference", "persistency.difference_s",
     _one("persistency.curves")),
    ("healthmarkov.persistency", "iterate_forward", "persistency.difference_s", _n_steps),
)

PARSE_METRIC = "ingest.parse_s"
REPORT_METRIC = "cli.self_s"
IMPORT_METRIC = "cli.import_s"

#: Every time metric a span can carry.
TIME_METRICS = tuple(dict.fromkeys(t[2] for t in TARGETS))

#: Every count a span can carry.
COUNT_METRICS = (
    "cli.commands", "synthetic.claims_rows", "synthetic.paths", "ingest.rows",
    "ingest.person_years", "panel.cache_rows", "panel.read_cache_calls", "kernels.cells",
    "estimate.ar_fits", "estimate.ar_unavailable", "lifted.projections", "lifted.matvecs",
    "persistency.curves", "persistency.steps",
)


class _Span:
    __slots__ = ("id", "parent", "metric", "start", "dur", "child", "counts")

    def __init__(self, span_id, parent, metric, start):
        self.id = span_id
        self.parent = parent
        self.metric = metric
        self.start = start
        self.dur = 0
        self.child = 0
        self.counts = {}

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "metric": self.metric,
                "start_ns": self.start, "dur_ns": self.dur,
                "self_ns": self.dur - self.child, "counts": self.counts}


class Tracer:
    """In-memory span recorder for one process; install() binds the wrappers."""

    def __init__(self, run_id: str, root_parent: str | None = None):
        self.run_id = run_id
        self.root_parent = root_parent
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}-"
        self._restore: list[tuple] = []  # (owner, attribute or None for a dict, old value)

    @classmethod
    def from_env(cls) -> "Tracer":
        return cls(os.environ[RUN_ID_ENV], os.environ.get(PARENT_ENV))

    # -- spans ---------------------------------------------------------------

    def _open(self, metric: str) -> _Span:
        parent = self._stack[-1].id if self._stack else self.root_parent
        span = _Span(self._prefix + str(next(self._ids)), parent, metric, time.perf_counter_ns())
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.dur = time.perf_counter_ns() - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.dur
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, metric: str):
        """A span the benchmark opens itself around a step of its own."""
        span = self._open(metric)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, func, metric, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(metric)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _wrap_parse(self, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            total = 0
            rows = 0
            parent = None
            try:
                while True:
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        total += time.perf_counter_ns() - t0
                        return
                    finally:
                        if parent is None:
                            parent = tracer._stack[-1] if tracer._stack else None
                    total += time.perf_counter_ns() - t0
                    rows += 1
                    yield item
            finally:
                inner.close()
                span = _Span(tracer._prefix + str(next(tracer._ids)),
                             parent.id if parent else tracer.root_parent, PARSE_METRIC, 0)
                span.dur = total
                span.counts = {"ingest.rows": rows}
                if parent is not None:
                    parent.child += total
                tracer.spans.append(span)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target in the loaded healthmarkov modules.

        Raises LookupError when a target no longer exists, so a renamed
        function cannot silently drop out of the trace.
        """
        importlib.import_module("healthmarkov")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "healthmarkov" or name.startswith("healthmarkov."))]
        for mod_name, attr, metric, counter in TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__.get(meth)
                if raw is None:
                    raise LookupError(f"{mod_name}.{attr} not found")
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, metric, counter))
                else:
                    wrapped = self._wrap(raw, metric, counter)
                self._restore.append((owner, meth, raw))
                setattr(owner, meth, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise LookupError(f"{mod_name}.{attr} not found")
            if metric == PARSE_METRIC:
                wrapped = self._wrap_parse(original)
            else:
                wrapped = self._wrap(original, metric, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)
        self._wrap_reports()

    def _wrap_reports(self) -> None:
        """Report functions live in cli.REPORTS; their own work is cli self time."""
        cli = importlib.import_module("healthmarkov.cli")
        reports = cli.REPORTS
        original = dict(reports)
        for rid, (func, desc) in original.items():
            reports[rid] = (self._wrap(func, REPORT_METRIC, None), desc)
        self._restore.append((reports, None, original))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            if name is None:
                owner.clear()
                owner.update(value)
            else:
                setattr(owner, name, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def records(self) -> list[dict]:
        return [dict(s.record(), run=self.run_id) for s in self.spans]

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}-{time.perf_counter_ns()}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def load_spans(directory: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def layer_totals(spans: list[dict]) -> tuple[dict, dict]:
    """Per-metric summed self seconds and summed counts."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for s in spans:
        if s["metric"] in times:
            times[s["metric"]] += s["self_ns"] / 1e9
        for key, value in s["counts"].items():
            counts[key] += value
    return times, counts


def covered_seconds(spans: list[dict], root_ids: set) -> float:
    """Seconds covered by layer spans whose parent is one of the benchmark's own spans."""
    return sum(s["dur_ns"] for s in spans
               if s["parent"] in root_ids and s["metric"] in TIME_METRICS + (IMPORT_METRIC,)) / 1e9
