"""Span tracing of natlog's layers from outside the package.

The tracer replaces selected public functions of the ``natlog`` modules
with wrappers that record a span (name, start, end, parent span, run id)
or, for hot leaf functions, only count calls.  Modules import functions by
name (``from .executor import execute``), so every module attribute that
is bound to a traced function is replaced, and every one is restored when
tracing ends.  Spans stay in memory in flat arrays and are written out at
the end of the run.

A span's self time is its duration minus the time covered by its direct
child spans; calls made while the tracer's own bookkeeping runs are not
spans, so that bookkeeping lands in the parent's self time and shows up
as the tracing overhead of the whole run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# The modules are the layers.
LAYERS = (
    "datagen",
    "data",
    "chunker",
    "knowledge",
    "policy",
    "executor",
    "relations",
    "trainer",
    "metrics",
    "cli",
)

# Functions recorded as spans, by "module.function".
SPANNED = (
    "cli.main",
    "datagen.generate",
    "data.save_dataset",
    "data.load_dataset",
    "policy.save_checkpoint",
    "policy.load_checkpoint",
    "chunker.chunk_pair",
    "knowledge.align",
    "knowledge.queue_from_keys",
    "policy.featurize_pair",
    "policy.step_distributions",
    "policy.grad_log_prob",
    "executor.execute",
    "executor.enumerate_programs",
    "trainer.train",
    "trainer.run_episode",
    "trainer.reward",
    "trainer.reinforce_objective",
    "trainer.hybrid_objective",
    "trainer.introspective_revision",
    "trainer.grid_search",
    "metrics.evaluate",
)

# Hot leaf functions whose calls are only counted: a span each would cost
# more than the call itself.
COUNTED = ("policy.distribution", "relations.join")

# Generator functions: the wrapper drains them inside the span, so the
# span covers the whole search rather than the creation of the generator.
DRAINED = ("executor.enumerate_programs",)


def natlog_modules() -> list:
    """The package and each of its layer modules."""
    return [importlib.import_module("natlog")] + [
        importlib.import_module(f"natlog.{layer}") for layer in LAYERS
    ]


def resolve(qualname: str):
    module, _, attr = qualname.partition(".")
    return getattr(importlib.import_module(f"natlog.{module}"), attr)


class Tracer:
    """In-memory span recorder with per-function counters and hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_run = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.run = -1
        self.runs: list[str] = []
        self.counts: Counter = Counter()  # (run id, counter name) -> count
        self.feature_rows: dict[int, set[bytes]] = {}
        self.patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_run.append(self.run)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.stack.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A top-level span; spans inside it share its run id."""
        self.run = len(self.runs)
        self.runs.append(name)
        index = self.open(self.name_id(f"phase.{name}"))
        try:
            yield
        finally:
            self.close(index)
            self.run = -1

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, qualname: str, fn, hook):
        name_id = self.name_id(qualname)
        drain = qualname in DRAINED
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            bound = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                state = hook.before(bound)
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                self.close(index)
            if hook is not None:
                hook.after(self.run, bound, state, result)
            return iter(result) if drain else result

        return wrapper

    def _count_wrapper(self, qualname: str, fn):
        counts = self.counts
        key = f"{qualname}.calls"

        def wrapper(*args, **kwargs):
            counts[self.run, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every natlog binding of each traced function."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        hooks = _hooks(self)
        wrappers = {}
        for qualname in SPANNED:
            fn = resolve(qualname)
            wrappers[id(fn)] = (
                fn, self._span_wrapper(qualname, fn, hooks.get(qualname))
            )
        for qualname in COUNTED:
            fn = resolve(qualname)
            wrappers[id(fn)] = (fn, self._count_wrapper(qualname, fn))
        for module in natlog_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self.patched:
            module, attr, value = self.patched.pop()
            setattr(module, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "run": np.frombuffer(self.span_run, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Spans as arrays in an .npz file, with name and run tables."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            runs=np.array(json.dumps(self.runs)),
            **self.arrays(),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the direct children of a span cover
    disjoint parts of its interval.  ``parent`` holds -1 for root spans.
    """
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered


def summarize(tracer: Tracer, phases: set[str]) -> dict:
    """Calls, self time and counters per traced function over the phases.

    Returns ``{"functions": {name: {"calls", "self_s"}}, "counts": {...},
    "rows": set of distinct feature rows}``.
    """
    run_ids = [i for i, r in enumerate(tracer.runs) if r in phases]
    spans = tracer.arrays()
    duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    own = self_times(spans["parent"], duration)
    keep = np.isin(spans["run"], run_ids)
    table: dict[str, dict] = {}
    for name_id, name in enumerate(tracer.names):
        if name.startswith("phase."):
            continue
        mask = keep & (spans["name"] == name_id)
        table[name] = {
            "calls": int(mask.sum()),
            "self_s": float(own[mask].sum()) / 1e9,
        }
    counts: Counter = Counter()
    for (run, key), value in tracer.counts.items():
        if run in run_ids:
            counts[key] += value
    # executions made by the exhaustive search, counted where they happen
    execute_id = tracer.name_ids.get("executor.execute")
    search_id = tracer.name_ids.get("executor.enumerate_programs")
    if execute_id is not None and search_id is not None:
        parents = spans["parent"][keep & (spans["name"] == execute_id)]
        parents = parents[parents >= 0]
        counts["executor.enumerate_programs.programs_tried"] = int(
            (spans["name"][parents] == search_id).sum()
        )
    rows = set().union(*(tracer.feature_rows.get(r, set()) for r in run_ids))
    return {"functions": table, "counts": counts, "rows": rows}


class _Hook:
    def __init__(self, before=None, after=None):
        self.before = before or (lambda bound: None)
        self.after = after


def _hooks(tracer: Tracer) -> dict[str, _Hook]:
    """Result inspections that give the useful/attempted ratios."""
    counts = tracer.counts

    def featurized(run, bound, state, result):
        counts[run, "policy.featurize_pair.rows"] += len(result)
        tracer.feature_rows.setdefault(run, set()).update(
            row.tobytes() for row in result
        )

    def searched(run, bound, state, result):
        counts[run, "executor.enumerate_programs.programs_reaching"] += len(result)

    def grid_searched(run, bound, state, result):
        counts[run, "trainer.grid_search.hits"] += bool(result)

    def revised(run, bound, state, result):
        _, events = result
        counts[run, "trainer.ir.popped"] += state - len(bound["phi"])
        counts[run, "trainer.ir.knowledge_accepted"] += sum(
            e.source == "knowledge" for e in events
        )

    return {
        "policy.featurize_pair": _Hook(after=featurized),
        "executor.enumerate_programs": _Hook(after=searched),
        "trainer.grid_search": _Hook(after=grid_searched),
        "trainer.introspective_revision": _Hook(
            before=lambda bound: len(bound["phi"]), after=revised
        ),
    }


# Per-layer metrics reported by a traced run, each with the end-to-end
# metric it should move (see README.md).
CALLS_AND_SELF = (
    "policy.step_distributions",
    "policy.grad_log_prob",
    "policy.featurize_pair",
    "knowledge.align",
    "knowledge.queue_from_keys",
    "chunker.chunk_pair",
    "executor.execute",
    "trainer.run_episode",
    "trainer.reward",
    "trainer.reinforce_objective",
    "trainer.introspective_revision",
    "trainer.grid_search",
)
SELF_ONLY = (
    "executor.enumerate_programs",
    "trainer.hybrid_objective",
    "metrics.evaluate",
)
# Layers with spans in the measured cycles; the rest only run in set-up
# (datagen, data, cli) or are only counted (relations).
MEASURED_LAYERS = ("chunker", "knowledge", "policy", "executor", "trainer", "metrics")
SETUP_SELF = (
    "cli.main",
    "datagen.generate",
    "data.save_dataset",
    "data.load_dataset",
    "policy.load_checkpoint",
)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(measured: dict, setup: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the summaries of the measured and set-up phases."""
    functions, counts = measured["functions"], measured["counts"]

    def row(name: str, summary: dict = measured) -> dict:
        return summary["functions"].get(name, {"calls": 0, "self_s": 0.0})

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (row(name)["calls"], "count")
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in SETUP_SELF:
        out[f"{name}.self_s"] = (row(name, setup)["self_s"], "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")

    tried = counts["executor.enumerate_programs.programs_tried"]
    reaching = counts["executor.enumerate_programs.programs_reaching"]
    out["policy.featurize_pair.distinct_row_share"] = (
        _share(len(measured["rows"]), counts["policy.featurize_pair.rows"]),
        "ratio",
    )
    out["executor.enumerate_programs.programs_tried"] = (tried, "count")
    out["executor.enumerate_programs.programs_reaching"] = (reaching, "count")
    out["oracle.reaching_share"] = (_share(reaching, tried), "ratio")
    out["trainer.ir.knowledge_accept_share"] = (
        _share(counts["trainer.ir.knowledge_accepted"], counts["trainer.ir.popped"]),
        "ratio",
    )
    out["trainer.grid_search.hit_share"] = (
        _share(counts["trainer.grid_search.hits"], row("trainer.grid_search")["calls"]),
        "ratio",
    )
    for layer in MEASURED_LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(r["self_s"] for n, r in functions.items() if n.startswith(f"{layer}.")),
            "s",
        )
    return out
