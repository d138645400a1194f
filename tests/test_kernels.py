import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclab import kernels
from sclab.distributions import Gauss1D, Gauss2D, SampleSet
from sclab.divergences import grid_axes
from sclab.kernels import (
    KdeModel,
    KernelSpec,
    SignedKernelError,
    bandwidth,
    fit,
    kde_pdf,
    l1_error,
    verify_kernel_order,
)

ALL_KERNELS = (
    KernelSpec.gaussian(),
    KernelSpec.epanechnikov(),
    KernelSpec.higher_order_gaussian(4),
    KernelSpec.higher_order_gaussian(6),
)


class TestBandwidth:
    def test_power_of_two(self):
        assert bandwidth(4096, 2, 1) == pytest.approx(0.25, abs=1e-15)

    def test_single_sample(self):
        assert bandwidth(1, 2, 1) == 1.0
        assert bandwidth(1, 6, 2) == 1.0

    def test_ten_thousand(self):
        assert bandwidth(10**4, 2, 1) == pytest.approx(10 ** (-4 / 6.0), rel=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            bandwidth(0, 2, 1)


class TestFitAndPdf:
    def test_single_point_model(self):
        with pytest.warns(UserWarning):  # n * h^d = 1 trips the mass guard
            model = fit(SampleSet(np.array([[0.0]]), 0), KernelSpec.gaussian())
        assert model.bandwidth == 1.0
        assert model.pdf(0.0) == pytest.approx(0.39894, abs=1e-5)
        assert model.pdf(1.0) == pytest.approx(0.24197, abs=1e-5)

    def test_bandwidth_from_count(self):
        data = Gauss1D(0, 1).sample(4096, 1)
        assert fit(data, KernelSpec.gaussian()).bandwidth == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit(SampleSet(np.empty((0, 1)), 0), KernelSpec.gaussian())

    def test_dimension_mismatch(self):
        model = fit(Gauss1D(0, 1).sample(64, 1), KernelSpec.gaussian())
        with pytest.raises(ValueError):
            kde_pdf(model, np.zeros((4, 2)))

    def test_small_mass_warns(self):
        with pytest.warns(UserWarning, match="variance term"):
            fit(SampleSet(np.array([[0.0], [1.0]]), 0), KernelSpec.gaussian())

    @pytest.mark.parametrize("kernel", ALL_KERNELS[:2])
    def test_nonneg_kernel_pdf_nonnegative_and_normalized(self, kernel):
        data = Gauss1D(0, 1).sample(512, 3)
        model = fit(data, kernel)
        x = np.linspace(-12, 12, 4097)
        vals = model.pdf(x)
        assert (vals >= 0).all()
        assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-3)

    def test_higher_order_pdf_integrates_to_one_but_dips_negative(self):
        data = Gauss1D(0, 1).sample(64, 5)
        model = fit(data, KernelSpec.higher_order_gaussian(4))
        x = np.linspace(-12, 12, 4097)
        vals = model.pdf(x)
        assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-3)
        assert vals.min() < 0

    def test_two_dimensional_pdf(self):
        g = Gauss2D((0, 0), (1, 1))
        model = fit(g.sample(256, 7), KernelSpec.gaussian())
        v = model.pdf(np.array([0.0, 0.0]))
        assert v > 0


@pytest.mark.parametrize("u", [np.linspace(-40.0, 40.0, 80_001), np.array(1.3), np.zeros((3, 0, 2))])
def test_phi_in_place_keeps_bits(u):
    """Normal, subnormal and underflowing exp results, a 0-d and an empty input."""
    expected = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    assert np.array_equal(KernelSpec.gaussian().profile_1d(u), expected)


def untiled_pdf(model: KdeModel, x) -> np.ndarray:
    """The estimate with each sample block formed over every row in one pass."""
    batch = np.asarray(x, dtype=float).reshape(-1, model.dim)
    pts, h = model.samples.points, model.bandwidth
    n, d = pts.shape
    out = np.zeros(batch.shape[0])
    step = max(1, kernels._CHUNK_CELLS // batch.shape[0])
    for j0 in range(0, n, step):
        u = (batch[:, None, :] - pts[None, j0 : j0 + step, :]) / h
        k = model.kernel.profile_1d(u)
        out += (k.prod(axis=2) if d > 1 else k[:, :, 0]).sum(axis=1)
    return out / (n * h**d)


def model_and_grid(kernel: KernelSpec, d: int, n: int, nodes: int):
    pts = np.random.default_rng(d).standard_normal((n, d))
    model = KdeModel(SampleSet(pts, 0), kernel, bandwidth=bandwidth(n, kernel.order, d))
    axes = [np.linspace(-4.0, 4.0, nodes)] * d
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return model, grid


class TestTiledPdf:
    """The exact sum (``_exact_pdf``), the grid path's oracle and fallback."""

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("d, nodes", [(1, 4097), (2, 65)])
    def test_bit_identical_to_untiled(self, kernel, d, nodes):
        model, grid = model_and_grid(kernel, d, 1500, nodes)
        q = grid.shape[0]
        step = kernels._CHUNK_CELLS // q
        rows = kernels._TILE_CELLS // step
        assert q % rows and 1500 % step  # a short last tile and a short last block
        assert np.array_equal(kernels._exact_pdf(model, grid), untiled_pdf(model, grid))

    @pytest.mark.parametrize("d", [1, 2])
    def test_single_point(self, d):
        model, _ = model_and_grid(KernelSpec.gaussian(), d, 300, 3)
        x = 0.3 if d == 1 else np.array([0.3, -0.2])
        value = kde_pdf(model, x)
        assert isinstance(value, float)
        assert value == untiled_pdf(model, x)[0]

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("d, nodes", [(1, 101), (2, 11)])
    def test_many_tiles(self, monkeypatch, kernel, d, nodes):
        model, grid = model_and_grid(kernel, d, 50, nodes)
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 1000)
        whole = untiled_pdf(model, grid)
        calls = []
        profile = KernelSpec.profile_1d
        monkeypatch.setattr(
            KernelSpec, "profile_1d", lambda self, u: calls.append(u.shape) or profile(self, u)
        )
        monkeypatch.setattr(kernels, "_TILE_CELLS", 20)
        assert np.array_equal(kernels._exact_pdf(model, grid), whole)
        q = grid.shape[0]
        step = 1000 // q  # 9 samples per block in 1-d, 8 in 2-d
        rows = 20 // step  # 2 rows per tile
        assert len(calls) == -(-50 // step) * -(-q // rows)
        assert max(shape[0] for shape in calls) == rows

    @pytest.mark.parametrize("q", [1, 2, 7])
    def test_few_rows(self, q):
        model, _ = model_and_grid(KernelSpec.gaussian(), 1, 300, 3)
        x = np.linspace(-3.0, 3.0, q)[:, None]
        assert np.array_equal(kernels._exact_pdf(model, x), untiled_pdf(model, x))

    def test_rows_within_one_tile(self, monkeypatch):
        model, grid = model_and_grid(KernelSpec.gaussian(), 1, 300, 101)
        monkeypatch.setattr(kernels, "_TILE_CELLS", 10**8)  # 101 rows < one tile
        assert np.array_equal(kernels._exact_pdf(model, grid), untiled_pdf(model, grid))


def concurrent_pdfs(model, x, workers):
    """``_exact_pdf(model, x)`` from ``workers`` caller threads at once."""
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda _: kernels._exact_pdf(model, x), range(workers)))


class TestThreadedPdf:
    """Callers on threads get the serial bits: neither the exact sum nor the
    grid path keeps any shared state."""

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("d, nodes", [(1, 4097), (2, 65)])
    def test_bit_identical_for_any_worker_count(self, kernel, d, nodes):
        model, grid = model_and_grid(kernel, d, 1500, nodes)
        serial = kernels._exact_pdf(model, grid)
        for workers in (2, 3, 8):
            for value in concurrent_pdfs(model, grid, workers):
                assert np.array_equal(value, serial), f"{workers} workers"

    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("q", [1, 2, 7])
    def test_few_rows(self, workers, q):
        model, _ = model_and_grid(KernelSpec.gaussian(), 1, 300, 3)
        x = np.linspace(-3.0, 3.0, q)[:, None]
        expected = untiled_pdf(model, x)
        for value in concurrent_pdfs(model, x, workers):
            assert np.array_equal(value, expected)

    def test_grid_path_at_two_bandwidths_interleaved(self):
        # threads that keep switching between two bandwidths, and so between
        # two transform lengths, must each get the serial bytes
        target = Gauss1D(0, 1)
        x = grid_axes(target.support_hint, 4097)[0]
        models = [fit(target.sample(n, 20 + n), KernelSpec.gaussian()) for n in (1024, 2048)]
        serial = [kernels._grid_pdf(model, x).tobytes() for model in models]
        jobs = [k % 2 for k in range(48)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(kde_pdf, models[k], x) for k in jobs]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [value.tobytes() for value in got] == [serial[k] for k in jobs]


# the grid path's error bound, in units of the exact sum's own rounding at the
# grid's largest coordinate X: eps * (1 + X / h) * phi(0) / h (at most 0.9 seen)
GRID_ERROR_UNITS = 2.0


def grid_error_unit(x: np.ndarray, h: float) -> float:
    return np.finfo(float).eps * (1.0 + np.abs(x).max() / h) / (math.sqrt(2.0 * math.pi) * h)


def one_node_nudged(x: np.ndarray, k: int) -> np.ndarray:
    x = x.copy()
    x[k] = np.nextafter(x[k], np.inf)
    return x


class Window(NamedTuple):
    """The nodes ``_grid_pdf`` computes and the length of its transforms."""

    first: int  # the least and greatest node of a kept sample
    last: int
    left: int  # the window: every node outside left .. right is 0.0
    right: int
    reach: int
    size: int


def window_rule(model: KdeModel, x: np.ndarray) -> Window | None:
    """The window and transform length of ``_grid_pdf(model, x)``, worked out
    from the model's own samples; None when no sample is within the reach of
    a node. The length is the least 5-smooth one at which no lag between a
    kept sample and a window node wraps onto a lag within the reach."""
    q = x.size
    dx = (x[-1] - x[0]) / (q - 1)
    reach = math.ceil(16.0 * model.bandwidth / dx)
    node = np.rint((model.samples.points[:, 0] - x[0]) / dx)
    node = node[(node >= -reach) & (node <= q - 1 + reach)]
    if not node.size:
        return None
    first, last = int(node.min()), int(node.max())
    left, right = max(first - reach, 0), min(last + reach, q - 1)
    size = kernels._fft_length(reach + 1 + max(right - first, last - left))
    return Window(first, last, left, right, reach, size)


def grid_pdf_and_lengths(model: KdeModel, x: np.ndarray):
    """``_grid_pdf(model, x)`` and the length of each inverse transform it ran."""
    with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as irfft:
        got = kernels._grid_pdf(model, x)
    return got, [call.args[1] for call in irfft.call_args_list]


def check_window(model: KdeModel, x: np.ndarray, got: np.ndarray, lengths: list) -> Window | None:
    """Assert that ``got`` is 0.0 outside the window and that the transforms
    ran at the rule's length, never longer than the whole grid's q + 2 reach."""
    rule = window_rule(model, x)
    if rule is None:
        assert not got.any() and not lengths
        return None
    assert not got[: rule.left].any() and not got[rule.right + 1 :].any()
    assert lengths == [rule.size]
    assert rule.last - rule.first + 1 <= rule.size <= kernels._fft_length(x.size + 2 * rule.reach)
    return rule


class TestGridPdf:
    """Taylor-expanded binning of a 1-d Gaussian estimate on a uniform grid."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 16384),
        h=st.floats(0.05, 2.0),
        nodes=st.sampled_from([1024, 1025, 4097, 8193]),
        widths=st.floats(1.01, 18.0),  # box width in kernel reaches 16h
        centre=st.floats(-20.0, 20.0),
        spread=st.floats(0.01, 3.0),  # sample spread in box widths
        far=st.floats(0.0, 0.5),  # share of samples past the kernel's reach
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=16384, h=2.0, nodes=8193, widths=1.01, centre=0.0, spread=0.01, far=0.0, seed=0)
    @example(n=5000, h=0.05, nodes=1024, widths=18.0, centre=3.0, spread=1.0, far=0.2, seed=1)
    # transform lengths 12800 and 1152 above, 1800 and 2187 (3^7) here
    @example(n=3000, h=0.3, nodes=1024, widths=2.0, centre=-1.0, spread=0.2, far=0.1, seed=2)
    @example(n=700, h=0.8, nodes=4097, widths=10.0, centre=5.0, spread=0.05, far=0.0, seed=3)
    # every sample on one node, its window unclipped: length 2048 = 2 reach + 1 rounded up
    @example(n=500, h=0.5, nodes=4097, widths=4.016, centre=0.0, spread=1e-12, far=0.0, seed=5)
    # every sample past the reach: no transform, all zeros
    @example(n=100, h=0.5, nodes=1025, widths=3.0, centre=2.0, spread=1.0, far=1.0, seed=7)
    def test_matches_exact_sum(self, n, h, nodes, widths, centre, spread, far, seed):
        rng = np.random.default_rng(seed)
        width = 16.0 * h * widths
        lo, hi = centre - width / 2, centre + width / 2
        pts = rng.normal(centre, spread * width, n)
        beyond = rng.random(n) < far  # these lie more than 16h outside the box
        side = np.where(rng.random(n) < 0.5, lo - 16.0 * h, hi + 16.0 * h)
        pts[beyond] = side[beyond] + np.sign(side[beyond] - centre) * rng.uniform(0, 10, beyond.sum())
        model = KdeModel(SampleSet(pts[:, None], 0), KernelSpec.gaussian(), bandwidth=h)
        x = np.linspace(lo, hi, nodes)
        got, lengths = grid_pdf_and_lengths(model, x)
        assert got is not None  # rho = spacing / 2h <= 0.141: an order M <= 12 suffices
        assert np.array_equal(kde_pdf(model, x), got)
        exact = kernels._exact_pdf(model, x[:, None])
        assert (got >= 0).all()
        assert np.abs(got - exact).max() <= GRID_ERROR_UNITS * grid_error_unit(x, h)
        check_window(model, x, got, lengths)

    def test_quadrature_grid_takes_grid_path(self):
        target = Gauss1D(0, 1)
        model = fit(target.sample(4096, 2), KernelSpec.gaussian())
        x = grid_axes(target.support_hint, 4097)[0]
        got = kernels._grid_pdf(model, x)
        assert got is not None
        assert np.array_equal(kde_pdf(model, x[:, None]), got)
        exact = kernels._exact_pdf(model, x[:, None])
        assert np.abs(got - exact).max() <= GRID_ERROR_UNITS * grid_error_unit(x, model.bandwidth)
        assert l1_error(model, target) == pytest.approx(
            0.5 * np.trapezoid(np.abs(exact - target.pdf(x)), x), abs=1e-15
        )

    @pytest.mark.parametrize(
        "kernel, d, nodes",
        [(KernelSpec.epanechnikov(), 1, 4097), (KernelSpec.higher_order_gaussian(4), 1, 4097),
         (KernelSpec.higher_order_gaussian(6), 1, 4097), (KernelSpec.gaussian(), 2, 65)],
        ids=["epanechnikov", "order4", "order6", "gaussian_2d"],
    )
    def test_other_profiles_and_2d_take_exact_sum(self, kernel, d, nodes):
        # a single point takes it too: TestTiledPdf.test_single_point
        model, grid = model_and_grid(kernel, d, 1500, nodes)
        assert np.array_equal(kde_pdf(model, grid), kernels._exact_pdf(model, grid))

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(-10.0, 10.0, 4097)[::-1],  # descending: bitwise linspace(10, -10)
            one_node_nudged(np.linspace(-10.0, 10.0, 4097), 2000),
            np.geomspace(1.0, 20.0, 4097) - 10.0,
            np.full(4097, 0.5),
            np.array([0.5]),
        ],
        ids=["descending", "one_ulp_off", "nonuniform", "constant", "one_row"],
    )
    def test_non_grid_takes_exact_sum(self, grid):
        model, _ = model_and_grid(KernelSpec.gaussian(), 1, 1500, 3)
        assert kernels._grid_pdf(model, grid) is None
        assert np.array_equal(kde_pdf(model, grid), kernels._exact_pdf(model, grid[:, None]))

    @pytest.mark.parametrize(
        "h, lo, hi",
        [(0.05, -10.5, 10.5), (1.0, -0.5, 0.5)],
        ids=["needs_order_above_12", "kernel_wider_than_grid"],
    )
    def test_coarse_or_narrow_grid_takes_exact_sum(self, h, lo, hi):
        pts = np.random.default_rng(4).uniform(lo, hi, (1500, 1))
        model = KdeModel(SampleSet(pts, 0), KernelSpec.gaussian(), bandwidth=h)
        x = np.linspace(lo, hi, 1024)
        assert kernels._grid_pdf(model, x) is None
        assert np.array_equal(kde_pdf(model, x), kernels._exact_pdf(model, x[:, None]))

    @pytest.mark.parametrize("rho, order", [(0.0, 0), (0.01, 6), (0.14, 12), (0.15, None)])
    def test_taylor_order(self, rho, order):
        assert kernels._taylor_order(rho) == order


class TestGridWindow:
    """The window of nodes within the reach of a kept sample, at its edge
    cases, on 2049 nodes over [-4, 4] at h = 0.1 (a reach of 410 nodes); a
    window with no kept sample is an example of ``test_matches_exact_sum``."""

    H, Q, LO, HI = 0.1, 2049, -4.0, 4.0
    DX = (HI - LO) / (Q - 1)
    REACH = 410

    def checked(self, pts):
        """The grid values and the window rule, after checking both against
        the exact sum and the rule."""
        model = KdeModel(SampleSet(np.asarray(pts)[:, None], 0), KernelSpec.gaussian(), bandwidth=self.H)
        x = np.linspace(self.LO, self.HI, self.Q)
        got, lengths = grid_pdf_and_lengths(model, x)
        exact = kernels._exact_pdf(model, x[:, None])
        assert np.abs(got - exact).max() <= GRID_ERROR_UNITS * grid_error_unit(x, self.H)
        return got, check_window(model, x, got, lengths)

    def test_one_node(self):
        # a span of 1, unclipped: the length holds 2 reach + 1
        rng = np.random.default_rng(8)
        got, rule = self.checked(self.LO + (700 + rng.uniform(-0.25, 0.25, 300)) * self.DX)
        assert rule.first == rule.last == 700 and rule.reach == self.REACH
        assert (rule.left, rule.right) == (700 - self.REACH, 700 + self.REACH)
        assert rule.size == kernels._fft_length(2 * self.REACH + 1)

    def test_past_both_ends(self):
        # samples only in the extensions past both ends, two of them on the
        # outermost extended nodes: clipped on both sides, the whole grid's length
        rng = np.random.default_rng(9)
        reach = self.REACH * self.DX
        pts = np.concatenate([
            rng.uniform(self.LO - reach, self.LO, 200), rng.uniform(self.HI, self.HI + reach, 200),
            [self.LO - reach, self.HI + reach],
        ])
        got, rule = self.checked(pts)
        assert (rule.first, rule.last) == (-self.REACH, self.Q - 1 + self.REACH)
        assert (rule.left, rule.right) == (0, self.Q - 1)
        assert rule.size == kernels._fft_length(self.Q + 2 * self.REACH)

    def test_past_one_end(self):
        # samples only past the upper end: clipped there alone
        got, rule = self.checked(np.random.default_rng(10).uniform(4.1, 5.6, 500))
        assert self.Q - 1 < rule.first and 0 < rule.left and rule.right == self.Q - 1
        assert got[-1] > 0


def per_order_pdf(model: KdeModel, x: np.ndarray) -> np.ndarray:
    """``_grid_pdf`` with each order's kernel taps He_m phi tabulated and
    transformed by ``np.fft.rfft``, at the least power-of-two length: the
    grid path before its tap spectra took their closed form."""
    q, lo, hi = x.size, float(x[0]), float(x[-1])
    h = model.bandwidth
    dx = (hi - lo) / (q - 1)
    order = kernels._taylor_order(dx / (2.0 * h))
    reach = math.ceil(model.kernel.support_radius() * h / dx)
    pts = model.samples.points[:, 0]
    node = np.rint((pts - lo) / dx)
    near = (node >= -reach) & (node <= q - 1 + reach)
    node = node[near]
    offset = (pts[near] - (node * dx + lo)) / h
    bins = node.astype(np.intp) + reach
    size = 1 << (q + 2 * reach - 1).bit_length()
    weight = np.ones_like(offset)
    total = 0.0
    for m, taps in enumerate(explicit_taps(reach, dx / h, size, order)):
        coeffs = np.bincount(bins, weights=weight, minlength=q + 2 * reach)
        total = total + np.fft.rfft(coeffs, size) * np.fft.rfft(taps)
        weight = weight * offset / (m + 1)
    out = np.maximum(np.fft.irfft(total, size)[reach : reach + q], 0.0)
    out /= pts.shape[0] * h
    return out


def explicit_taps(reach: int, ratio: float, size: int, order: int) -> list:
    """For m = 0 .. order, He_m(l ratio) phi(l ratio) for |l| <= reach, lag l
    at index l mod ``size``, with He_m from its three-term recurrence."""
    u = np.arange(-reach, reach + 1) * ratio
    phi = kernels._phi(u)
    out = []
    he_prev, he = np.zeros_like(u), np.ones_like(u)
    for m in range(order + 1):
        if m:
            he_prev, he = he, u * he - (m - 1) * he_prev
        kernel, taps = he * phi, np.zeros(size)
        taps[: reach + 1] = kernel[reach:]
        taps[size - reach :] = kernel[:reach]
        out.append(taps)
    return out


def count_ffts(monkeypatch) -> list:
    """Record the name of each ``np.fft`` transform called from here on."""
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)
        )
    return calls


def gauss1d_model_and_grid(n: int, seed: int):
    """A Gaussian estimate of n draws of N(0, 1) and its 4097-node quadrature grid."""
    target = Gauss1D(0, 1)
    return fit(target.sample(n, seed), KernelSpec.gaussian()), grid_axes(target.support_hint, 4097)[0]


def plain_model_and_grid(n, h, nodes, lo, hi, seed):
    pts = np.random.default_rng(seed).normal(0.5 * (lo + hi), 0.3 * (hi - lo), (n, 1))
    model = KdeModel(SampleSet(pts, 0), KernelSpec.gaussian(), bandwidth=h)
    return model, np.linspace(lo, hi, nodes)


def smooth_5(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestGridPlan:
    """What ``_grid_pdf`` plans for a call, its Taylor order, transform length
    and tap spectra, it works out afresh from the bandwidth and the grid: no
    call leaves state for the next, and the closed-form spectra keep the
    values within the grid path's error bound of both oracles."""

    CASES = {
        "gauss1d_2048": lambda: gauss1d_model_and_grid(2048, 3),
        "wide_kernel_8193": lambda: plain_model_and_grid(16384, 2.0, 8193, -16.16, 16.16, 0),
        "order_12_1024": lambda: plain_model_and_grid(5000, 0.05, 1024, -4.2, 10.2, 1),
        "even_1024": lambda: plain_model_and_grid(700, 0.4, 1024, -3.0, 5.0, 2),
    }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_cold_warm_and_switch_match_oracle(self, case):
        model, x = self.CASES[case]()
        other, _ = gauss1d_model_and_grid(1024, 4)  # another bandwidth and grid
        first = kernels._grid_pdf(model, x)
        bound = GRID_ERROR_UNITS * grid_error_unit(x, model.bandwidth)
        assert np.abs(first - kernels._exact_pdf(model, x[:, None])).max() <= bound
        assert np.abs(first - per_order_pdf(model, x)).max() <= bound
        assert kernels._grid_pdf(model, x).tobytes() == first.tobytes()  # repeated
        for switch_x in (x, grid_axes(((-10.0, 10.0),), 2049)[0]):
            assert kernels._grid_pdf(other, switch_x) is not None
            assert kernels._grid_pdf(model, x).tobytes() == first.tobytes()  # after a switch

    def test_fft_counts_cold_and_warm(self, monkeypatch):
        model, x = gauss1d_model_and_grid(2048, 3)
        calls = count_ffts(monkeypatch)
        for _ in range(2):  # the first call at this bandwidth, then a repeat
            kernels._grid_pdf(model, x)
            assert calls == ["rfft"] * 7 + ["irfft"]  # M = 6: one per order's coefficients, one inverse
            del calls[:]

    @pytest.mark.parametrize("ratio", [0.28, 0.1, 0.0123, 0.001])
    def test_closed_form_spectra_match_rfft_of_taps(self, ratio):
        reach = math.ceil(16.0 / ratio)
        size = kernels._fft_length(4097 + 2 * reach)
        closed = list(kernels._tap_spectra(ratio, size, kernels._MAX_ORDER))
        taps = explicit_taps(reach, ratio, size, kernels._MAX_ORDER)
        assert len(closed) == len(taps) == kernels._MAX_ORDER + 1
        for m, (spectrum, tap) in enumerate(zip(closed, taps)):
            expected = np.fft.rfft(tap)
            assert spectrum.shape == expected.shape
            peak = np.abs(expected).max()
            assert np.abs(spectrum - expected).max() <= 16 * np.finfo(float).eps * peak, m

    def test_fft_length_is_least_5_smooth(self):
        smooth = [n for n in range(1, 2**15 + 1) if smooth_5(n)]
        k = 0
        for n in range(1, 2**15 + 1):
            while smooth[k] < n:
                k += 1
            assert kernels._fft_length(n) == smooth[k], n

    def test_transform_length_on_quadrature_grid(self):
        model, x = gauss1d_model_and_grid(2048, 3)
        got, sizes = grid_pdf_and_lengths(model, x)
        rule = check_window(model, x, got, sizes)
        # N(0, 1) draws leave the window unclipped in the box [-10, 10], so
        # the length holds the samples' span plus the reach on each side
        assert 0 < rule.left and rule.right < 4096
        assert sizes == [kernels._fft_length(rule.last - rule.first + 1 + 2 * rule.reach)]
        assert sizes == [3375]
        assert sizes[0] < kernels._fft_length(4097 + 2 * rule.reach) == 6000  # the whole grid's


class TestSampling:
    def test_degenerate_bandwidth_concentrates(self):
        model = KdeModel(
            samples=SampleSet(np.array([[5.0]]), 0),
            kernel=KernelSpec.gaussian(),
            bandwidth=1e-6,
        )
        s = model.sample(3, 2)
        assert np.abs(s.points - 5.0).max() < 1e-5

    def test_variance_inflation_gaussian(self):
        data = Gauss1D(0, 1).sample(10**4, 5)
        model = fit(data, KernelSpec.gaussian())
        s = model.sample(10**4, 11)
        expected = data.points.var() + model.bandwidth**2
        assert s.points.var() == pytest.approx(expected, rel=0.05)

    def test_mean_preserved(self):
        data = Gauss1D(2.0, 1).sample(10**4, 5)
        model = fit(data, KernelSpec.gaussian())
        s = model.sample(10**4, 13)
        assert s.points.mean() == pytest.approx(data.points.mean(), abs=0.05)

    def test_epanechnikov_noise_exact(self):
        # median of three uniforms has exactly the parabolic profile law
        noise = KernelSpec.epanechnikov().draw_noise(np.random.default_rng(0), (200000,))
        assert abs(noise.mean()) < 0.005
        assert noise.var() == pytest.approx(0.2, abs=0.005)
        assert np.abs(noise).max() <= 1.0

    @pytest.mark.parametrize("order", [4, 6])
    def test_signed_kernel_sampling_forbidden(self, order):
        data = Gauss1D(0, 1).sample(32, 1)
        model = fit(data, KernelSpec.higher_order_gaussian(order))
        with pytest.raises(SignedKernelError):
            model.sample(1, 0)

    def test_sampling_deterministic(self):
        model = fit(Gauss1D(0, 1).sample(100, 1), KernelSpec.gaussian())
        assert np.array_equal(model.sample(50, 9).points, model.sample(50, 9).points)


class TestL1Error:
    def test_singular_limit_saturates(self):
        # a near-delta estimate sitting on a grid node: distance clamps at 1
        model = KdeModel(
            samples=SampleSet(np.array([[0.0]]), 0),
            kernel=KernelSpec.gaussian(),
            bandwidth=1e-6,
        )
        assert l1_error(model, Gauss1D(0, 1)) == 1.0

    def test_large_sample_error_window(self):
        data = Gauss1D(0, 1).sample(2**14, 3)
        err = l1_error(fit(data, KernelSpec.gaussian()), Gauss1D(0, 1))
        assert 0.01 <= err <= 0.06

    def test_error_shrinks_with_n(self):
        g = Gauss1D(0, 1)
        rng = np.random.default_rng(77)
        seeds = rng.integers(0, 2**63, size=(10, 2))
        small, big = [], []
        for r in range(10):
            small.append(l1_error(fit(g.sample(2**8, int(seeds[r, 0])), KernelSpec.gaussian()), g))
            big.append(l1_error(fit(g.sample(2**14, int(seeds[r, 1])), KernelSpec.gaussian()), g))
        assert np.median(big) < np.median(small)

    def test_two_dimensional(self):
        g = Gauss2D((0, 0), (1.0, 1.0))
        model = fit(g.sample(100, 3), KernelSpec.gaussian())
        err = l1_error(model, g, nodes=1024)
        assert 0.0 < err < 1.0

    def test_three_dims_unsupported(self):
        class Fake3D:
            dim = 3
            support_hint = ((-1, 1),) * 3

        model = fit(Gauss1D(0, 1).sample(16, 1), KernelSpec.gaussian())
        with pytest.raises(ValueError):
            l1_error(model, Fake3D())


class TestKernelOrder:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_all_shipped_kernels_pass(self, kernel):
        report = verify_kernel_order(kernel)
        assert report.passed, report.failures

    def test_gaussian_moments(self):
        report = verify_kernel_order(KernelSpec.gaussian())
        assert report.moments[0] == pytest.approx(1.0, abs=1e-6)
        assert abs(report.moments[1]) < 1e-6

    def test_order4_second_moment_vanishes(self):
        report = verify_kernel_order(KernelSpec.higher_order_gaussian(4))
        assert abs(report.moments[2]) < 1e-6

    def test_epanechnikov_absolute_second_moment(self):
        report = verify_kernel_order(KernelSpec.epanechnikov())
        assert report.abs_moment_at_order == pytest.approx(0.2, abs=1e-6)

    def test_symmetry_exact(self):
        for kernel in ALL_KERNELS:
            assert verify_kernel_order(kernel).symmetric


class TestSpecValidation:
    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            KernelSpec("triangular")

    def test_order_constraints(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", order=4)
        with pytest.raises(ValueError):
            KernelSpec("higher_order_gaussian", order=3)

    def test_nonneg_flag(self):
        assert KernelSpec.gaussian().nonneg
        assert KernelSpec.epanechnikov().nonneg
        assert not KernelSpec.higher_order_gaussian(4).nonneg
