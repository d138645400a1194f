"""Span tracing for the traced benchmark run, from outside the program.

The tracer wraps each sclab module's public entry points while a traced unit
runs and restores the originals afterwards, so untraced units run the
unmodified code. A wrapper replaces every binding of the original function in
every loaded ``sclab`` module, because consumers bind names with
``from ... import`` (``sclab.loop`` binds ``tv_quadrature``, ``tv_histogram``
and ``sample_mixture``; ``sclab.kernels`` binds ``tv_quadrature``). Methods
are wrapped on their class, which also covers calls through ``self``.

Spans are named ``<module>.<function>`` and record start, end, parent and unit
id. They stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "unit", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, unit, parent):
        self.name = name
        self.unit = unit
        self.parent = parent  # index of the enclosing span, or None
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0  # time covered by direct child spans
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# --- per-call counters: (tracer, args, kwargs, result) -> dict -------------


def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 0 else int(arr.shape[0])


def _kde_pdf_counts(tracer, args, kwargs, result):
    model, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    n, d = model.samples.points.shape
    q = _rows(x)
    grid = np.asarray(x)
    key = (id(model), grid.shape, float(grid.flat[0]), float(grid.flat[-1]))
    repeat = key in tracer.seen_grids
    tracer.seen_grids.add(key)
    tracer.keep_alive.append(model)  # ids must stay unique within the unit
    return {"kernel_evals": q * n, "bytes": q * n * d * 8, "repeat": int(repeat)}


def _tv_quadrature_counts(tracer, args, kwargs, result):
    box = args[2] if len(args) > 2 else kwargs["box"]
    nodes = args[3] if len(args) > 3 else kwargs.get("nodes", 4096)
    nodes += nodes % 2 == 0  # the estimator makes the node count odd
    return {"grid_points": nodes ** len(box), "tol": result.tolerance}


def _tv_histogram_counts(tracer, args, kwargs, result):
    return {"tol": result.tolerance}


def _features_counts(tracer, args, kwargs, result):
    net = args[0]
    q, m = result.shape
    return {"macs": q * m * (net.dim + net.embed_dim), "bytes": q * m * 8}


def _reverse_sample_counts(tracer, args, kwargs, result):
    score, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.keep_alive.append(score)
    return {"point_steps": result.n * cfg.reverse_steps, "model": id(score)}


def _train_counts(tracer, args, kwargs, result):
    return {"steps": result.steps_run}


def _sample_mixture_counts(tracer, args, kwargs, result):
    n = args[3] if len(args) > 3 else kwargs["n"]
    return {"points": n}


def _pdf_counts(tracer, args, kwargs, result):
    return {"points": _rows(args[1] if len(args) > 1 else kwargs["x"])}


def _run_loop_counts(tracer, args, kwargs, result):
    return {"generations": len(result.records)}


def _write_csv_counts(tracer, args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size}


# (span name, "module" or "module:Class", attribute, counter). A class named
# "Class+" stands for every subclass in the module that defines the attribute.
TARGETS = (
    ("kernels.fit", "sclab.kernels", "fit", None),
    ("kernels.kde_pdf", "sclab.kernels", "kde_pdf", _kde_pdf_counts),
    ("kernels.l1_error", "sclab.kernels", "l1_error", None),
    ("kernels.draw", "sclab.kernels:KdeModel", "draw", None),
    ("divergences.tv_quadrature", "sclab.divergences", "tv_quadrature", _tv_quadrature_counts),
    ("divergences.tv_histogram", "sclab.divergences", "tv_histogram", _tv_histogram_counts),
    ("divergences.kl_quadrature", "sclab.divergences", "kl_quadrature", None),
    ("diffusion.init_scorenet", "sclab.diffusion", "init_scorenet", None),
    ("diffusion.train", "sclab.diffusion", "train", _train_counts),
    ("diffusion.reverse_sample", "sclab.diffusion", "reverse_sample", _reverse_sample_counts),
    ("diffusion.evaluate", "sclab.diffusion:ScoreNet", "evaluate", None),
    ("diffusion.features", "sclab.diffusion:ScoreNet", "features", _features_counts),
    ("diffusion.prior_kl_gauss", "sclab.diffusion", "prior_kl_gauss", None),
    ("mixing.sample_mixture", "sclab.mixing", "sample_mixture", _sample_mixture_counts),
    ("distributions.pdf", "sclab.distributions:TargetDensity", "pdf", _pdf_counts),
    ("distributions.sample", "sclab.distributions:TargetDensity", "sample", None),
    ("distributions.draw", "sclab.distributions:TargetDensity+", "draw", None),
    ("bounds.coefficients", "sclab.bounds", "coefficients", None),
    ("bounds.bound_kde", "sclab.bounds", "bound_kde", None),
    ("bounds.bound_diffusion", "sclab.bounds", "bound_diffusion", None),
    ("bounds.bound_flow", "sclab.bounds", "bound_flow", None),
    ("bounds.bound_table_rows", "sclab.bounds", "bound_table_rows", None),
    ("loop.run_replicates", "sclab.loop", "run_replicates", None),
    ("loop.run_loop", "sclab.loop", "run_loop", _run_loop_counts),
    ("cli.parse_config", "sclab.cli", "parse_config", None),
    ("cli.run_scenario", "sclab.cli", "run_scenario", None),
    ("cli.write_csv_atomic", "sclab.cli", "write_csv_atomic", _write_csv_counts),
)

BOUND_SPANS = ("bounds.bound_kde", "bounds.bound_diffusion", "bounds.bound_table_rows")
SAMPLE_SPANS = ("distributions.sample", "distributions.draw")

# Span coverage by workload: spans that must fire in every traced unit, and
# name prefixes that must not fire at all.
COVERAGE = {
    "kde_balanced": (
        ("kernels.kde_pdf", "kernels.fit", "kernels.draw", "divergences.tv_quadrature",
         "mixing.sample_mixture", "distributions.pdf", "distributions.sample",
         "bounds.coefficients", "bounds.bound_kde", "loop.run_loop", "cli.parse_config",
         "cli.run_scenario", "cli.write_csv_atomic"),
        ("diffusion.", "divergences.tv_histogram", "kernels.l1_error"),
    ),
    "kde_rate": (
        ("kernels.kde_pdf", "kernels.fit", "kernels.l1_error", "divergences.tv_quadrature",
         "distributions.pdf", "distributions.sample", "bounds.coefficients",
         "bounds.bound_kde", "cli.parse_config", "cli.run_scenario", "cli.write_csv_atomic"),
        ("diffusion.", "mixing.", "loop.", "kernels.draw", "divergences.tv_histogram"),
    ),
    "diffusion_balanced": (
        ("diffusion.features", "diffusion.evaluate", "diffusion.reverse_sample",
         "diffusion.train", "divergences.tv_histogram", "mixing.sample_mixture",
         "distributions.sample", "bounds.coefficients", "bounds.bound_diffusion",
         "loop.run_loop", "cli.parse_config", "cli.run_scenario", "cli.write_csv_atomic"),
        ("kernels.", "divergences.tv_quadrature", "distributions.pdf"),
    ),
}


class Tracer:
    """Collects spans for the units run inside ``traced(unit_id)``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._unit = None
        self._bindings = None  # (owner, attribute, original) while installed
        self.missing: list[str] = []  # targets the program no longer has
        self.seen_grids: set = set()
        self.keep_alive: list = []

    def _wrap(self, name, fn, count):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            span = Span(name, tracer._unit, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.end - span.start
            if count is not None:
                span.counts = count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self):
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "sclab"]
        bindings = []
        self.missing = []
        for name, owner, attr, count in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            found = []  # (namespace owner, key, original)
            if cls_name:
                base = getattr(module, cls_name.rstrip("+"), None)
                classes = [base] if base is not None else []
                if cls_name.endswith("+") and base is not None:
                    classes = [c for c in vars(module).values()
                               if isinstance(c, type) and issubclass(c, base)]
                found = [(c, attr, vars(c)[attr]) for c in classes if attr in vars(c)]
            elif callable(fn := getattr(module, attr, None)):
                found = [(m, key, fn) for m in modules
                         for key, value in vars(m).items() if value is fn]
            if not found:
                self.missing.append(name)
            for target, key, original in found:
                setattr(target, key, self._wrap(name, original, count))
                bindings.append((target, key, original))
        self._bindings = bindings

    def _uninstall(self):
        for target, key, original in reversed(self._bindings):
            setattr(target, key, original)
        self._bindings = None

    @contextmanager
    def traced(self, unit_id):
        """Wrap the entry points for the duration of one unit."""
        self._unit, self.seen_grids, self.keep_alive = unit_id, set(), []
        self._install()
        try:
            yield self
        finally:
            self._uninstall()
            self._unit, self.seen_grids, self.keep_alive = None, set(), []

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "unit": s.unit, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    **({"counts": s.counts} if s.counts else {}),
                }) + "\n")


# --- per-unit metrics -------------------------------------------------------


def _covered_s(spans: list[Span], all_spans: list[Span], names) -> float:
    """Time covered by spans named in ``names``, counting nested ones once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and all_spans[p].name not in names:
            p = all_spans[p].parent
        if p is None:
            total += s.duration
    return total


def unit_metrics(all_spans: list[Span], unit_id) -> dict[str, float]:
    spans = [s for s in all_spans if s.unit == unit_id]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def incl(*names):
        return _covered_s(spans, all_spans, names)

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts[key] for s in by_name.get(name, ()) if s.counts)

    kde_calls = calls("kernels.kde_pdf")
    rs_calls = calls("diffusion.reverse_sample")
    models = {s.counts["model"] for s in by_name.get("diffusion.reverse_sample", ())}
    tols = [s.counts["tol"] for n in ("divergences.tv_quadrature", "divergences.tv_histogram")
            for s in by_name.get(n, ())]
    return {
        "kernels.kde_pdf.calls": kde_calls,
        "kernels.kde_pdf.s": incl("kernels.kde_pdf"),
        "kernels.kde_pdf.kernel_evals": total("kernels.kde_pdf", "kernel_evals"),
        "kernels.kde_pdf.bytes_computed": total("kernels.kde_pdf", "bytes"),
        "kernels.kde_pdf.repeat_frac": total("kernels.kde_pdf", "repeat") / kde_calls if kde_calls else 0.0,
        "kernels.fit.s": incl("kernels.fit"),
        "kernels.draw.s": incl("kernels.draw"),
        "divergences.tv_quadrature.calls": calls("divergences.tv_quadrature"),
        "divergences.tv_quadrature.s": incl("divergences.tv_quadrature"),
        "divergences.tv_quadrature.self_s": self_s("divergences.tv_quadrature"),
        "divergences.tv_quadrature.grid_points": total("divergences.tv_quadrature", "grid_points"),
        "divergences.tv_histogram.calls": calls("divergences.tv_histogram"),
        "divergences.tv_histogram.s": incl("divergences.tv_histogram"),
        "divergences.tv_tol_max": max(tols, default=0.0),
        "diffusion.features.calls": calls("diffusion.features"),
        "diffusion.features.s": incl("diffusion.features"),
        "diffusion.features.macs": total("diffusion.features", "macs"),
        "diffusion.features.bytes_computed": total("diffusion.features", "bytes"),
        "diffusion.reverse_sample.calls": rs_calls,
        "diffusion.reverse_sample.s": incl("diffusion.reverse_sample"),
        "diffusion.reverse_sample.point_steps": total("diffusion.reverse_sample", "point_steps"),
        "diffusion.reverse_sample.calls_per_model": rs_calls / len(models) if models else 0.0,
        "diffusion.train.s": incl("diffusion.train"),
        "diffusion.train.steps": total("diffusion.train", "steps"),
        "mixing.sample_mixture.calls": calls("mixing.sample_mixture"),
        "mixing.sample_mixture.s": incl("mixing.sample_mixture"),
        "mixing.sample_mixture.self_s": self_s("mixing.sample_mixture"),
        "mixing.sample_mixture.points": total("mixing.sample_mixture", "points"),
        "distributions.pdf.s": incl("distributions.pdf"),
        "distributions.pdf.points": total("distributions.pdf", "points"),
        "distributions.sample.s": incl(*SAMPLE_SPANS),
        "bounds.coefficients.calls": calls("bounds.coefficients"),
        "bounds.bound.s": incl(*BOUND_SPANS),
        "loop.run_loop.s": incl("loop.run_loop"),
        "loop.run_loop.self_s": self_s("loop.run_loop"),
        "loop.generations": total("loop.run_loop", "generations"),
        "cli.parse_config.s": incl("cli.parse_config"),
        "cli.run_scenario.self_s": self_s("cli.run_scenario"),
        "cli.write_csv_atomic.s": incl("cli.write_csv_atomic"),
        "cli.write_csv_atomic.bytes": total("cli.write_csv_atomic", "bytes"),
    }


def self_times(all_spans: list[Span], unit_id) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in all_spans:
        if s.unit == unit_id:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
    return out


def coverage_failures(workload, all_spans, unit_walls: dict, overhead_s: float,
                      missing=()) -> list[str]:
    """Span-coverage self-check over the traced units of one run.

    Every expected span fires in every traced unit, no excluded span fires,
    and per unit the self times add up to the unit's wall time within the
    measured tracing overhead.
    """
    must, must_not = COVERAGE[workload]
    failures = [f"target {name} not found in the program" for name in missing]
    tol = max(abs(overhead_s), 1e-3)
    for unit_id, wall in unit_walls.items():
        fired = self_times(all_spans, unit_id)
        for name in must:
            if name not in fired:
                failures.append(f"unit {unit_id}: {name} did not fire")
        for name in fired:
            if name.startswith(must_not):
                failures.append(f"unit {unit_id}: {name} fired")
        gap = wall - sum(fired.values())
        if abs(gap) > tol:
            failures.append(
                f"unit {unit_id}: self times sum to {sum(fired.values()):.6f} s, "
                f"wall {wall:.6f} s (gap {gap:.6f} s > {tol:.6f} s)"
            )
    return failures


def median_metrics(per_unit: list[dict]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
