"""Numerical total-variation and KL estimators used to score simulated densities.

Quadrature TV is the metric of choice when both densities are evaluable
(analytic targets, fitted kernel estimates); histogram TV is the sample-based
surrogate for generators without a tractable pdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import SampleSet

Box = Sequence[tuple[float, float]]
PdfFn = Callable[[np.ndarray], np.ndarray]

MIN_NODES = 1024


@dataclass(frozen=True)
class TVEstimate:
    """TV value clamped to [0, 1]; the pre-clamp value is kept for diagnostics."""

    value: float
    method: str  # "quadrature" | "histogram" | "analytic"
    tolerance: float
    raw_value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("clamped TV value must lie in [0, 1]")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def _clamped(raw: float, method: str, tolerance: float) -> TVEstimate:
    return TVEstimate(
        value=min(1.0, max(0.0, raw)),
        method=method,
        tolerance=max(tolerance, np.finfo(float).tiny),
        raw_value=raw,
    )


def grid_axes(box: Box, nodes: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, nodes) for lo, hi in box]


def _trapz_grid(values: np.ndarray, axes: Sequence[np.ndarray]) -> float:
    v = values.reshape([len(ax) for ax in axes])
    for ax in reversed(axes):
        v = np.trapezoid(v, ax, axis=-1)
    return float(v)


def _check_grid(box: Box, nodes: int) -> None:
    d = len(box)
    if d < 1 or d > 2:
        raise ValueError(f"quadrature supports 1 or 2 dimensions, got {d}")
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"degenerate box interval ({lo}, {hi})")
    if nodes < MIN_NODES:
        raise ValueError(f"nodes must be >= {MIN_NODES} per dimension")


def _grid(box: Box, nodes: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Axes and flattened (q, d) points of the tensor grid on ``box``."""
    _check_grid(box, nodes)
    axes = grid_axes(box, nodes)
    if len(axes) == 1:
        return axes, axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes, np.stack([m.ravel() for m in mesh], axis=-1)


def tv_grid(box: Box, nodes: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``tv_quadrature``'s grid on ``box``: its axes and (q, d) points. ``nodes`` is
    made odd, so the halved grid of the tolerance keeps both endpoints (a count
    below ``MIN_NODES`` stays below it, and is refused)."""
    return _grid(box, nodes | 1)


def tv_on_grid(a: np.ndarray, b: np.ndarray, axes: Sequence[np.ndarray]) -> TVEstimate:
    """Trapezoid-rule TV from two densities' values on a ``tv_grid``: the
    integral of |a - b| / 2.

    The reported tolerance is the Richardson difference between the full grid
    and the grid with every second node dropped. Works for signed estimates
    (the integrand takes absolute values).
    """
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    fine = 0.5 * _trapz_grid(diff, axes)
    shape = [len(ax) for ax in axes]
    grid = diff.reshape(shape)
    coarse_slices = tuple(slice(None, None, 2) for _ in axes)
    coarse = 0.5 * _trapz_grid(
        grid[coarse_slices].ravel(), [ax[::2] for ax in axes]
    )
    return _clamped(fine, "quadrature", abs(fine - coarse))


def tv_quadrature(pdf_a: PdfFn, pdf_b: PdfFn, box: Box, nodes: int = 4096) -> TVEstimate:
    """Trapezoid-rule TV of two pdfs over ``box``: ``tv_on_grid`` of their
    values on ``tv_grid(box, nodes)``."""
    axes, pts = tv_grid(box, nodes)
    return tv_on_grid(pdf_a(pts), pdf_b(pts), axes)


def default_bins(n_a: int, n_b: int) -> int:
    """Cube-root rule on the smaller sample."""
    return max(2, math.ceil(min(n_a, n_b) ** (1.0 / 3.0)))


def tv_histogram(
    a: SampleSet, b: SampleSet, bins: int | None = None, box: Box | None = None
) -> TVEstimate:
    """Histogram TV between two sample sets: half the L1 distance of bin frequencies.

    ``box`` defaults to the smallest axis-aligned box covering both sets; points
    outside an explicit box are dropped from the frequencies.
    """
    if a.n == 0 or b.n == 0:
        raise ValueError("histogram TV requires nonempty sample sets")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = a.dim
    if bins is None:
        bins = default_bins(a.n, b.n)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if box is None:
        both = np.vstack([a.points, b.points])
        lo = both.min(axis=0)
        hi = both.max(axis=0)
        pad = 1e-9 * np.maximum(1.0, np.abs(hi - lo))
        box = tuple((float(l - p), float(h + p)) for l, h, p in zip(lo, hi, pad))
    counts_a, _ = np.histogramdd(a.points, bins=[bins] * d, range=box)
    counts_b, _ = np.histogramdd(b.points, bins=[bins] * d, range=box)
    raw = 0.5 * np.abs(counts_a / a.n - counts_b / b.n).sum()
    # sampling-noise floor: per-bin binomial scale summed over occupied bins
    tol = 0.5 * math.sqrt(bins**d) * math.sqrt(1.0 / a.n + 1.0 / b.n)
    return _clamped(float(raw), "histogram", tol)


def kl_quadrature(pdf_a: PdfFn, pdf_b: PdfFn, box: Box, nodes: int = 4096) -> float:
    """Trapezoid-rule KL divergence: integral of a*log(a/b).

    Points with a == 0 contribute zero; b == 0 anywhere a > 0 yields +inf.
    """
    axes, pts = _grid(box, nodes)
    va = np.asarray(pdf_a(pts), dtype=float)
    vb = np.asarray(pdf_b(pts), dtype=float)
    pos = va > 0.0
    if np.any(pos & (vb <= 0.0)):
        return math.inf
    integrand = np.zeros_like(va)
    integrand[pos] = va[pos] * np.log(va[pos] / vb[pos])
    return _trapz_grid(integrand, axes)
