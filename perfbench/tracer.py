"""Spans at the package's module boundaries, recorded from outside.

:func:`traced` replaces each public function named in :data:`TARGETS` with a
timing wrapper at every ``netstrength`` module attribute that refers to it
(so ``netstrength.dismantle.remove_nodes`` and ``netstrength.graph.remove_nodes``
share one wrapper), and puts every original back when the block ends. Nothing
is installed outside that block, so untraced runs execute the package
unmodified.

A span's parent is the span open when it started; its self time is its
duration minus the time covered by its children. Spans are folded into
per-name totals as they close, which keeps a long run's memory flat.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

TARGETS = (
    "graph.components",
    "graph.remove_nodes",
    "graph.Graph.build",
    "metrics.sigma",
    "metrics.cole1",
    "metrics.cole2",
    "metrics.gfp_score",
    "metrics.compute_metric",
    "dismantle.best_removal",
    "dismantle.evaluate_removal",
    "ilp.emit_ilp",
    "ilp.verify_ilp_solution",
    "datasets.generate",
    "datasets.write_suite",
    "datasets.load_edge_list",
    "datasets.EdgeListFile.parse",
    "weights.load_survey_csv",
    "weights.build_system",
    "weights.fit_weights",
    "evaluation.compare_suite",
    "evaluation.match_stats",
    "evaluation.load_ranked_gt_csv",
    "evaluation.load_predictions_csv",
    "evaluation.load_strength_values_csv",
    "evaluation.load_strength_gt_csv",
)


def _fit_variant(args, kwargs) -> str:
    ridge = kwargs.get("ridge", args[1] if len(args) > 1 else 0.0)
    return "weights.fit_weights_ridge" if ridge else "weights.fit_weights"


# Spans whose name depends on the call: the plain and the ridge fit are
# reported apart.
VARIANTS = {"weights.fit_weights": _fit_variant}


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Per-span-name call counts, total and self time, and parent links."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.parents: Counter[tuple[str | None, str]] = Counter()
        self._open: list[list] = []  # [name, child_ns] per open span

    def wrap(self, name: str, fn):
        stats, parents, open_spans = self.stats, self.parents, self._open
        variant = VARIANTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = variant(args, kwargs) if variant else name
            parent = open_spans[-1][0] if open_spans else None
            frame = [span, 0]
            open_spans.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                open_spans.pop()
                record = stats[span]
                record.calls += 1
                record.total_ns += elapsed
                record.self_ns += elapsed - frame[1]
                parents[parent, span] += 1
                if open_spans:
                    open_spans[-1][1] += elapsed

        return wrapper

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "netstrength" or name.startswith("netstrength.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every target for the duration of the block."""
    replaced: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            module_name, _, qualname = target.partition(".")
            module = importlib.import_module(f"netstrength.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                replaced.append((owner, attr, raw))
                setattr(owner, attr,
                        classmethod(tracer.wrap(target, raw.__func__)))
                continue
            fn = getattr(module, qualname)
            wrapper = tracer.wrap(target, fn)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        replaced.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
