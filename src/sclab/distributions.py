"""Analytic target densities: exact pdfs, exact samplers, closed-form divergences.

Only Gaussian families are provided (single, 1-d mixtures, 2-d diagonal):
they admit exact sampling, closed-form TV/KL oracles, and are smooth enough
for every downstream error-rate study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Truncation box half-width, in standard deviations from each component mean.
# Gaussian mass outside 10 sigma is < 1e-20, negligible next to quadrature error.
SUPPORT_SIGMAS = 10.0

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """A point cloud plus the seed that produced it, for exact replay."""

    points: np.ndarray  # (n, d)
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must have shape (n, d), got {pts.shape}")
        if pts.size and not np.isfinite(pts).all():
            raise ValueError("sample points must all be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or batch of points to shape (q, dim).

    Returns the batch and whether the input was a single point.
    """
    arr = np.asarray(x, dtype=float)
    if dim == 1:
        if arr.ndim == 0:
            return arr.reshape(1, 1), True
        if arr.ndim == 1:
            return arr[:, None], False
        if arr.ndim == 2 and arr.shape[1] == 1:
            return arr, False
    else:
        if arr.ndim == 1:
            if arr.shape[0] != dim:
                raise ValueError(f"point has dim {arr.shape[0]}, expected {dim}")
            return arr[None, :], True
        if arr.ndim == 2 and arr.shape[1] == dim:
            return arr, False
    raise ValueError(f"cannot interpret input of shape {arr.shape} as points of dim {dim}")


class TargetDensity:
    """Base class: exact pdf, exact sampler, and a finite truncation box."""

    dim: int = 1

    def pdf(self, x):
        """Density value(s) at ``x``; scalar for a single point, array for a batch."""
        batch, single = _as_batch(x, self.dim)
        vals = self._pdf_batch(batch)
        return float(vals[0]) if single else vals

    def _pdf_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> SampleSet:
        """``n`` i.i.d. draws, deterministic in ``seed``. ``n=0`` yields an empty set."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = np.random.default_rng(seed)
        return SampleSet(self.draw(n, rng), seed)

    @property
    def support_hint(self) -> tuple[tuple[float, float], ...]:
        """Per-dimension truncation box for quadrature."""
        raise NotImplementedError


@dataclass(frozen=True)
class Gauss1D(TargetDensity):
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not 0 < self.std < math.inf:
            raise ValueError("std must be positive and finite")

    dim = 1

    def _pdf_batch(self, pts):
        z = (pts[:, 0] - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.std)

    def draw(self, n, rng):
        return rng.normal(self.mean, self.std, size=(n, 1))

    @property
    def support_hint(self):
        w = SUPPORT_SIGMAS * self.std
        return ((self.mean - w, self.mean + w),)


@dataclass(frozen=True)
class GaussMixture1D(TargetDensity):
    """1-d Gaussian mixture; ``components`` holds (weight, mean, std) triples."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(m), float(s)) for w, m, s in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, m, s in comps:
            if not 0 <= w < math.inf:
                raise ValueError("mixture weights must be nonnegative and finite")
            if not math.isfinite(m):
                raise ValueError("component mean must be finite")
            if not 0 < s < math.inf:
                raise ValueError("component std must be positive and finite")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    dim = 1

    def _pdf_batch(self, pts):
        x = pts[:, 0]
        out = np.zeros_like(x)
        for w, m, s in self.components:
            z = (x - m) / s
            out += w * np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * s)
        return out

    def draw(self, n, rng):
        weights = np.array([w for w, _, _ in self.components])
        ks = rng.choice(len(self.components), size=n, p=weights)
        out = np.empty((n, 1))
        for k, (_, m, s) in enumerate(self.components):
            idx = np.nonzero(ks == k)[0]
            if idx.size:
                out[idx, 0] = rng.normal(m, s, size=idx.size)
        return out

    @property
    def support_hint(self):
        los = [m - SUPPORT_SIGMAS * s for _, m, s in self.components]
        his = [m + SUPPORT_SIGMAS * s for _, m, s in self.components]
        return ((min(los), max(his)),)

    def mean_value(self) -> float:
        return sum(w * m for w, m, _ in self.components)


@dataclass(frozen=True)
class Gauss2D(TargetDensity):
    """2-d Gaussian with diagonal covariance."""

    mean: tuple[float, float] = (0.0, 0.0)
    var: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if len(self.mean) != 2 or len(self.var) != 2:
            raise ValueError("mean and var must each have two entries")
        if not all(math.isfinite(m) for m in self.mean):
            raise ValueError("mean entries must be finite")
        if not all(0 < v < math.inf for v in self.var):
            raise ValueError("variances must be positive and finite")
        object.__setattr__(self, "mean", tuple(float(m) for m in self.mean))
        object.__setattr__(self, "var", tuple(float(v) for v in self.var))

    dim = 2

    def _pdf_batch(self, pts):
        mu = np.array(self.mean)
        v = np.array(self.var)
        z2 = ((pts - mu) ** 2 / v).sum(axis=1)
        norm = 2.0 * math.pi * math.sqrt(v[0] * v[1])
        return np.exp(-0.5 * z2) / norm

    def draw(self, n, rng):
        mu = np.array(self.mean)
        sd = np.sqrt(self.var)
        return mu + sd * rng.standard_normal((n, 2))

    @property
    def support_hint(self):
        sd = np.sqrt(self.var)
        return tuple(
            (m - SUPPORT_SIGMAS * s, m + SUPPORT_SIGMAS * s)
            for m, s in zip(self.mean, sd)
        )


def _gauss_crossings(a: Gauss1D, b: Gauss1D) -> list[float]:
    """Points where pdf_a - pdf_b changes sign, in increasing order."""
    if a.std == b.std:
        return [] if a.mean == b.mean else [(a.mean + b.mean) / 2.0]
    narrow, wide = (a, b) if a.std < b.std else (b, a)
    sn, sw = narrow.std, wide.std
    # In units y = (x - m_n) / s_n of the narrower std, log pdf_n - log pdf_w
    # is L - y^2 / 2 + (k y - d)^2 / 2 with k = s_n / s_w < 1, d = (m_w - m_n)
    # / s_w and L = log(s_w / s_n) > 0, so its zeros solve
    # ca y^2 + 2 k d y - (d^2 + 2 L) = 0 with ca = 1 - k^2. No coefficient
    # holds s_w / s_n, which overflows once one std is below about 5.6e-309
    # of the other, or a squared std, which underflows below about 1e-162.
    # ca is formed from s_w - s_n, L as log1p((s_w - s_n) / s_n) (a difference
    # of logs once that ratio overflows), and each root in the form that
    # avoids cancellation, so a crossing keeps full precision as s_w / s_n -> 1
    k = sn / sw
    d = (wide.mean - narrow.mean) / sw
    gap = (sw - sn) / sn
    log_ratio = math.log1p(gap) if gap < math.inf else math.log(sw) - math.log(sn)
    ca = (sw - sn) / sw * ((sw + sn) / sw)
    # the quarter discriminant (k d)^2 + ca (d^2 + 2 L) = d^2 + 2 L ca is > 0,
    # as two Gaussians of unequal std always cross twice; hypot and d (d / q)
    # form it and the second root without squaring d
    q = -(k * d + math.copysign(math.hypot(d, math.sqrt(2.0 * log_ratio * ca)), d))
    roots = (q / ca, -(d * (d / q) + 2.0 * log_ratio / q))
    return sorted(narrow.mean + sn * y for y in roots)


def analytic_tv_gauss1d(a: Gauss1D, b: Gauss1D) -> float:
    """Total variation distance between two 1-d Gaussians, in closed form.

    The density crossings split the line into intervals on each of which one
    density dominates, so TV = 1/2 * sum over the intervals of
    |P_a(interval) - P_b(interval)|, with Phi(x) = erfc(-x/sqrt(2))/2. The
    line is shifted to the narrower density's mean first, so its crossings
    stay apart when its std is below the spacing of doubles at that mean.
    """
    c = a.mean if a.std <= b.std else b.mean
    a, b = Gauss1D(a.mean - c, a.std), Gauss1D(b.mean - c, b.std)
    cuts = [-math.inf, *_gauss_crossings(a, b), math.inf]

    def cdf(g: Gauss1D, x: float) -> float:
        return 0.5 * math.erfc((g.mean - x) / (g.std * math.sqrt(2.0)))

    return min(1.0, 0.5 * math.fsum(
        abs(cdf(a, hi) - cdf(a, lo) - (cdf(b, hi) - cdf(b, lo)))
        for lo, hi in zip(cuts, cuts[1:])
    ))


def kl_gauss1d(a: Gauss1D, b: Gauss1D) -> float:
    """KL(a || b) for 1-d Gaussians, closed form."""
    s1, s2 = a.std, b.std
    return math.log(s2 / s1) + (s1**2 + (a.mean - b.mean) ** 2) / (2.0 * s2**2) - 0.5
