"""Kernel density estimation with vanishing-moment kernels and exact resampling.

Kernels are products of a one-dimensional profile over coordinates. The
order-2 profiles (Gaussian, Epanechnikov) are nonnegative and support exact
sampling from the fitted estimate; the higher-order Gaussian profiles have
negative lobes and are retained for error-rate studies only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import SampleSet, TargetDensity, _as_batch
from .divergences import tv_quadrature

_PROFILES = ("gaussian", "epanechnikov", "higher_order_gaussian")

# warn when n * h^d drops below this: the estimate is variance-dominated
_MASS_GUARD = 4.0


class SignedKernelError(ValueError):
    """Raised when an operation needs a nonnegative kernel but got a signed one."""


def _phi(u: np.ndarray) -> np.ndarray:
    # exp(-0.5 * u * u) / sqrt(2 pi) in one buffer: the same operations in the
    # same order, so the same bits, with one temporary instead of four
    t = np.asarray(-0.5 * u)
    t *= u
    np.exp(t, out=t)
    t /= math.sqrt(2.0 * math.pi)
    return t


@dataclass(frozen=True)
class KernelSpec:
    """A smoothing kernel profile and its vanishing-moment order."""

    profile: str
    order: int = 2

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown kernel profile {self.profile!r}")
        if self.profile in ("gaussian", "epanechnikov"):
            if self.order != 2:
                raise ValueError(f"{self.profile} kernel has order 2")
        elif self.order not in (4, 6):
            raise ValueError("higher_order_gaussian supports orders 4 and 6")

    @classmethod
    def gaussian(cls) -> "KernelSpec":
        return cls("gaussian", 2)

    @classmethod
    def epanechnikov(cls) -> "KernelSpec":
        return cls("epanechnikov", 2)

    @classmethod
    def higher_order_gaussian(cls, order: int) -> "KernelSpec":
        return cls("higher_order_gaussian", order)

    @property
    def nonneg(self) -> bool:
        return self.order == 2

    def profile_1d(self, u) -> np.ndarray:
        """One-dimensional profile value K(u); symmetric in u by construction."""
        u = np.asarray(u, dtype=float)
        if self.profile == "gaussian":
            return _phi(u)
        if self.profile == "epanechnikov":
            return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        u2 = u * u
        if self.order == 4:
            return 0.5 * (3.0 - u2) * _phi(u)
        return (15.0 - 10.0 * u2 + u2 * u2) / 8.0 * _phi(u)

    def draw_noise(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Exact draws from the profile density (order-2 kernels only)."""
        if not self.nonneg:
            raise SignedKernelError(
                "cannot sample from a signed (higher-order) kernel; "
                "only order-2 kernels define a probability density"
            )
        if self.profile == "gaussian":
            return rng.standard_normal(shape)
        # Epanechnikov: median of three independent U(-1, 1) draws
        u = rng.uniform(-1.0, 1.0, size=(*shape, 3))
        return np.median(u, axis=-1)

    def support_radius(self) -> float:
        """Half-width beyond which the profile is (numerically) zero."""
        return 1.0 if self.profile == "epanechnikov" else 16.0


def bandwidth(n: int, s: int, d: int) -> float:
    """Bias/variance balancing rule h = n**(-1 / (2s + 2d))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 1 or d < 1:
        raise ValueError("order and dimension must be >= 1")
    return float(n) ** (-1.0 / (2 * s + 2 * d))


@dataclass(frozen=True)
class KdeModel:
    """A fitted kernel density estimate; immutable after fit."""

    samples: SampleSet
    kernel: KernelSpec
    bandwidth: float

    def __post_init__(self):
        if self.samples.n == 0:
            raise ValueError("cannot fit a kernel estimate on an empty sample set")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def dim(self) -> int:
        return self.samples.dim

    def pdf(self, x):
        return kde_pdf(self, x)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        pts = self.samples.points
        idx = rng.integers(0, pts.shape[0], size=n)
        noise = self.kernel.draw_noise(rng, (n, self.dim))
        return pts[idx] + self.bandwidth * noise

    def sample(self, n: int, seed: int) -> SampleSet:
        """Exact draws from the estimate: uniform point pick plus scaled kernel noise."""
        if not self.kernel.nonneg:
            raise SignedKernelError(
                "cannot sample from a signed (higher-order) kernel"
            )
        rng = np.random.default_rng(seed)
        return SampleSet(self.draw(n, rng), seed)


def fit(samples: SampleSet, kernel: KernelSpec) -> KdeModel:
    """Fit a kernel estimate with the balancing bandwidth for the kernel's order."""
    if samples.n == 0:
        raise ValueError("cannot fit on an empty sample set")
    h = bandwidth(samples.n, kernel.order, samples.dim)
    if samples.n * h**samples.dim < _MASS_GUARD:
        warnings.warn(
            f"n * h^d = {samples.n * h ** samples.dim:.3g} < {_MASS_GUARD}: "
            "variance term dominates the estimate",
            stacklevel=2,
        )
    return KdeModel(samples=samples, kernel=kernel, bandwidth=h)


# the sample block size is _CHUNK_CELLS // q; it fixes how each point's sum
# is grouped, so changing it changes the last bits of every pdf value
_CHUNK_CELLS = 4_000_000
# cap on the scratch array (grid-row tile x sample block), about 256 KB, so
# the temporaries of one tile stay in cache
_TILE_CELLS = 32_768


def kde_pdf(model: KdeModel, x):
    """Evaluate the estimate: (1 / (n h^d)) * sum_j K((x - x_j) / h).

    May be negative for higher-order kernels. Accepts a single point or a
    (q, d) batch. There are two paths. A 1-d Gaussian estimate on an
    ascending uniform grid (points bitwise equal to
    ``np.linspace(x[0], x[-1], q)``, as every quadrature grid is) is
    evaluated by Taylor-expanded binning (``_grid_pdf``), each value within
    about ``eps * phi(0) / h`` of the exact sum, the sum's own rounding. Every
    other input, and every grid ``_grid_pdf`` declines, takes the exact sum
    (``_exact_pdf``), which is also the grid path's test oracle.
    """
    batch, single = _as_batch(x, model.dim)
    out = None
    if not single and model.dim == 1 and model.kernel.profile == "gaussian":
        out = _grid_pdf(model, batch[:, 0])
    if out is None:
        out = _exact_pdf(model, batch)
    return float(out[0]) if single else out


# Cramer's constant: |He_m(u)| exp(-u^2 / 4) <= _CRAMER * sqrt(m!) for every
# real u and m >= 0, so |He_m(u) phi(u)| <= _CRAMER * sqrt(m!) * phi(0)
_CRAMER = 1.0865
# highest Taylor order of the grid path; a grid that needs more (h below
# about 3.4 grid spacings) takes the exact sum
_MAX_ORDER = 12


def _taylor_order(rho: float) -> int | None:
    """Least order M whose Taylor remainder is at most eps * phi(0) at every u.

    The remainder of phi(u - e) = sum_m e^m / m! He_m(u) phi(u) past order M,
    for |e| <= rho, is at most _CRAMER * phi(0) * sum_{m > M} rho^m / sqrt(m!);
    past its first term the sum shrinks by at least rho / sqrt(M + 2) a term.
    None when no M <= _MAX_ORDER is enough.
    """
    eps = np.finfo(float).eps
    for m in range(_MAX_ORDER + 1):
        first = _CRAMER * rho ** (m + 1) / math.sqrt(math.factorial(m + 1))
        ratio = rho / math.sqrt(m + 2)
        if ratio < 1.0 and first <= eps * (1.0 - ratio):
            return m
    return None


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: numpy's FFT runs fast at such lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5  # 3^b 5^c
        while p35 < n:  # the least p35 2^a >= n
            length = p35 << ((n - 1) // p35).bit_length()
            if length < best:
                best = length
            p35 *= 3
        if p35 < best:  # the first 3^b 5^c >= n
            best = p35
        p5 *= 5
    return best


def _tap_spectra(ratio: float, size: int, order: int):
    """Yield, for m = 0 .. order, the real FFT of the taps He_m(l ratio)
    phi(l ratio), lag l at index l mod ``size``, in closed form.

    He_m phi is (-d/du)^m phi, whose Fourier transform is (-i nu)^m
    exp(-nu^2 / 2). By Poisson summation, the DFT of its samples at spacing
    ``ratio`` is that transform at nu_k = 2 pi k / (size ratio), divided by
    ``ratio``, plus its aliases at nu_k + 2 pi j / ratio for j != 0, less the
    taps past the reach that the caller's convolution leaves out. Every grid
    ``_grid_pdf`` accepts has ratio below 0.295 (``_taylor_order`` needs
    rho = ratio / 2 under 0.1474), so for m <= 12 the aliases stay below
    7e-17 of each order's peak and the taps past the 16h reach below 1e-40:
    the closed form is the FFT of the reached taps to rounding.
    """
    nu = np.arange(size // 2 + 1) * (2.0 * math.pi / (size * ratio))
    spectrum = np.exp(-0.5 * nu * nu) / ratio
    yield spectrum
    step = -1j * nu
    for _ in range(order):
        spectrum = spectrum * step
        yield spectrum


def _grid_pdf(model: KdeModel, x: np.ndarray) -> np.ndarray | None:
    """The 1-d Gaussian estimate on a grid ``x`` by Taylor-expanded binning.

    Each sample x_j moves to its nearest node g_k (the grid extended past
    both ends), leaving the offset e_j = (x_j - g_k) / h, |e_j| <= rho =
    spacing / (2h). Since phi(u - e) = sum_m e^m / m! He_m(u) phi(u), the
    grid values are sum_{m <= M} (c_m * He_m phi)[i] / (n h), one convolution
    per order of c_m[k] = sum_{j -> k} e_j^m / m! with the taps
    He_m(l spacing / h) phi(l spacing / h), done by real FFTs (Greengard and
    Strain, 1991, the fast Gauss transform). M is the least order whose
    remainder bound is under eps * phi(0) (``_taylor_order``), so each value
    is within about eps * phi(0) / h of the exact sum. Lags and samples past
    the profile's support radius from every node (phi below phi(16), about
    1e-56) are dropped. Returns None, for the exact sum to run, unless ``x``
    is bitwise ``np.linspace(lo, hi, q)`` with q >= 2 and lo < hi, some order
    up to ``_MAX_ORDER`` is enough, and the kernel reaches no further than
    the grid is wide (which keeps the transforms shorter than 6q).

    Only the window of nodes within the reach of a kept sample, from the
    least kept node less the reach to the greatest plus the reach (clipped to
    the grid), is computed; every other node is 0.0. The taps' spectra come
    in closed form (``_tap_spectra``), so a call runs M + 2 real FFTs, one
    per order's coefficients and one inverse, each at the least 5-smooth
    length at which no lag between a kept sample and a window node wraps
    onto a lag within the reach: never longer than q + 2 reach, and about
    the samples' span plus 2 reach when the window is not clipped.
    """
    q = x.size
    if q < 2 or not x[0] < x[-1]:
        return None
    lo, hi = float(x[0]), float(x[-1])
    if not np.array_equal(x, np.linspace(lo, hi, q)):
        return None
    h = model.bandwidth
    dx = (hi - lo) / (q - 1)
    order = _taylor_order(dx / (2.0 * h))
    reach = math.ceil(model.kernel.support_radius() * h / dx)  # in nodes
    if order is None or reach >= q:
        return None
    pts = model.samples.points[:, 0]
    node = np.rint((pts - lo) / dx)
    near = (node >= -reach) & (node <= q - 1 + reach)
    node = node[near]
    out = np.zeros(q)
    if not node.size:  # no sample within the reach of any node
        return out
    offset = (pts[near] - (node * dx + lo)) / h
    first, last = int(node.min()), int(node.max())
    # only nodes left .. right lie within the reach of a kept sample
    left, right = max(first - reach, 0), min(last + reach, q - 1)
    base = min(first, left)  # the node at circular index 0
    bins = node.astype(np.intp) - base
    # lags between a kept sample and a window node run from left - last to
    # right - first, so at this length none wraps onto a lag within the reach
    size = _fft_length(reach + 1 + max(right - first, last - left))
    weight = np.ones_like(offset)
    total = 0.0
    for m, spectrum in enumerate(_tap_spectra(dx / h, size, order)):
        if m:  # e^m / m!, updated in place: the same two roundings a step
            weight *= offset
            weight /= m
        total = total + np.fft.rfft(np.bincount(bins, weights=weight), size) * spectrum
    # node i sits at circular index i - base; the rounding of the transforms
    # can leave tail values a little below zero, where the exact sum is >= 0
    out[left : right + 1] = np.maximum(np.fft.irfft(total, size)[left - base : right - base + 1], 0.0)
    out /= pts.shape[0] * h
    return out


def _exact_pdf(model: KdeModel, batch: np.ndarray) -> np.ndarray:
    """The estimate at each row of a (q, d) batch, summed over every sample.

    Samples are summed in blocks of ``_CHUNK_CELLS // q``; each block is
    formed one tile of grid rows at a time. A row's value depends only on its
    own blocks, summed in the same order, so the tile size changes no bit of
    the result. It is the grid path's fallback and its test oracle.
    """
    pts = model.samples.points
    h = model.bandwidth
    n, d = pts.shape
    q = batch.shape[0]
    out = np.zeros(q)
    step = max(1, _CHUNK_CELLS // max(q, 1))
    rows = max(1, _TILE_CELLS // step)
    scratch = np.empty(rows * min(step, n) * d)  # the scaled offsets of one tile
    for j0 in range(0, n, step):
        block = pts[j0 : j0 + step]
        for t0 in range(0, q, rows):
            tile = batch[t0 : t0 + rows]
            u = scratch[: tile.shape[0] * block.shape[0] * d].reshape(tile.shape[0], -1, d)
            np.subtract(tile[:, None, :], block[None, :, :], out=u)
            u /= h
            k = model.kernel.profile_1d(u)
            out[t0 : t0 + rows] += (k.prod(axis=2) if d > 1 else k[:, :, 0]).sum(axis=1)
    out /= n * h**d
    return out


def l1_error(model: KdeModel, target: TargetDensity, nodes: int = 4096) -> float:
    """Half the L1 distance between the estimate and the target pdf.

    Grid quadrature over the target's truncation box; dimensions above 2 are
    not supported.
    """
    if model.dim != target.dim:
        raise ValueError(f"dimension mismatch: model {model.dim}, target {target.dim}")
    if target.dim > 2:
        raise ValueError("L1 error quadrature supports d <= 2 only")
    est = tv_quadrature(model.pdf, target.pdf, target.support_hint, nodes=nodes)
    return est.value


@dataclass(frozen=True)
class KernelOrderReport:
    """Numeric moment table for a kernel profile, checked at tolerance 1e-6."""

    order: int
    moments: tuple[float, ...]  # integral of u^j K(u) du for j = 0 .. order-1
    abs_moment_at_order: float  # integral of |u^order K(u)| du
    square_tail_integral: float  # integral of (1 + |u|^2) K(u)^2 du
    symmetric: bool
    passed: bool
    failures: tuple[str, ...]


def verify_kernel_order(kernel: KernelSpec, tol: float = 1e-6) -> KernelOrderReport:
    """Check the vanishing-moment conditions for the kernel's declared order."""
    r = kernel.support_radius()
    u = np.linspace(-r, r, 2**15 + 1)
    k = kernel.profile_1d(u)
    s = kernel.order
    moments = tuple(float(np.trapezoid(u**j * k, u)) for j in range(s))
    abs_moment = float(np.trapezoid(np.abs(u**s * k), u))
    square_tail = float(np.trapezoid((1.0 + np.abs(u) ** 2) * k * k, u))
    symmetric = bool(np.array_equal(k, kernel.profile_1d(-u)))

    failures = []
    if abs(moments[0] - 1.0) > tol:
        failures.append(f"mass {moments[0]!r} differs from 1 by more than {tol}")
    for j in range(1, s):
        if abs(moments[j]) > tol:
            failures.append(f"moment of order {j} is {moments[j]!r}, expected 0")
    if not math.isfinite(abs_moment):
        failures.append("absolute moment at the kernel order is not finite")
    if not math.isfinite(square_tail):
        failures.append("squared-profile tail integral is not finite")
    if not symmetric:
        failures.append("profile is not symmetric")
    return KernelOrderReport(
        order=s,
        moments=moments,
        abs_moment_at_order=abs_moment,
        square_tail_integral=square_tail,
        symmetric=symmetric,
        passed=not failures,
        failures=tuple(failures),
    )
