import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from sclab import distributions
from sclab.distributions import (
    Gauss1D,
    Gauss2D,
    GaussMixture1D,
    SampleSet,
    _gauss_crossings,
    analytic_tv_gauss1d,
    kl_gauss1d,
)


def _tv_by_quadrature(a, b):
    """Half the integral of |pdf_a - pdf_b| over a 12-sigma box.

    The box is split at the means and at the crossings, found apart from the
    code under test: sign changes of log(pdf_a / pdf_b) on a grid, refined by
    brentq. quad then integrates each smooth piece on its own; a kink inside
    a piece can fool its error estimate.
    """
    lo = min(a.mean - 12 * a.std, b.mean - 12 * b.std)
    hi = max(a.mean + 12 * a.std, b.mean + 12 * b.std)

    def log_ratio(x):
        za, zb = (x - a.mean) / a.std, (x - b.mean) / b.std
        return 0.5 * (zb * zb - za * za) + math.log(b.std / a.std)

    grid = np.linspace(lo, hi, 4097)
    sign = np.sign(log_ratio(grid))
    crossings = [brentq(log_ratio, grid[k], grid[k + 1], xtol=1e-15, rtol=1e-15)
                 for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
    inner = [*crossings, *grid[sign == 0], a.mean, b.mean]
    cuts = sorted({lo, hi, *(float(x) for x in inner if lo < x < hi)})
    pieces = [
        integrate.quad(lambda x: abs(a.pdf(x) - b.pdf(x)), x0, x1,
                       epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for x0, x1 in zip(cuts, cuts[1:])
    ]
    return 0.5 * math.fsum(pieces)


def _oracle_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        yield (Gauss1D(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 3))),
               Gauss1D(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 3))))


def _log_ratio_terms(a, b, x):
    """log pdf_a(x) - log pdf_b(x), written as ca*x^2 + cb*x + cc + log(s_b/s_a),
    and the sum of its terms' sizes: the quadratic terms exact in rationals,
    the log term in floats. For std ratios in [1/2, 2] the log term is
    log1p((s_b - s_a)/s_a), whose difference is exact there, so its relative
    error stays a few ulps as the ratio nears 1, where log(s_b/s_a) loses
    about eps/(ratio - 1)."""
    s1, s2, m1, m2, x = map(Fraction, (a.std, b.std, a.mean, b.mean, x))
    terms = [
        (s1**2 - s2**2) / (2 * s1**2 * s2**2) * x * x,
        (m1 / s1**2 - m2 / s2**2) * x,
        m2**2 / (2 * s2**2) - m1**2 / (2 * s1**2),
    ]
    if 0.5 <= b.std / a.std <= 2.0:
        log_term = math.log1p((b.std - a.std) / a.std)
    else:
        log_term = math.log(b.std / a.std)
    return float(sum(terms)) + log_term, float(sum(abs(t) for t in terms)) + abs(log_term)


# std of a collapsed Gaussian against N(0, 1); from about 1e-17 its two
# crossings round to one double at means near 1, unless the line is shifted
COLLAPSED_RATIOS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-15, 1e-20, 1e-30)


class TestSampling:
    def test_empty_draw(self):
        s = Gauss1D(0, 1).sample(0, 123)
        assert s.n == 0
        assert s.dim == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Gauss1D(0, 1).sample(-1, 0)

    def test_gauss1d_moments(self):
        s = Gauss1D(0, 1).sample(10**5, 7)
        # CLT tolerance: 3 sigma / sqrt(n) < 0.02 at this n
        assert abs(s.points.mean()) < 0.02
        assert abs(s.points.std() - 1.0) < 0.02

    def test_mixture_moments(self):
        mix = GaussMixture1D(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)))
        s = mix.sample(10**5, 7)
        assert abs(s.points.mean() - mix.mean_value()) < 0.03

    def test_determinism_bit_for_bit(self):
        a = Gauss1D(1.5, 0.7).sample(5000, 42)
        b = Gauss1D(1.5, 0.7).sample(5000, 42)
        assert np.array_equal(a.points, b.points)
        c = GaussMixture1D(((0.3, -1, 0.5), (0.7, 2, 1.5))).sample(2000, 9)
        d = GaussMixture1D(((0.3, -1, 0.5), (0.7, 2, 1.5))).sample(2000, 9)
        assert np.array_equal(c.points, d.points)

    def test_gauss2d_shape_and_moments(self):
        g = Gauss2D((1.0, -2.0), (4.0, 0.25))
        s = g.sample(10**5, 3)
        assert s.points.shape == (10**5, 2)
        assert np.allclose(s.points.mean(axis=0), [1.0, -2.0], atol=0.05)
        assert np.allclose(s.points.var(axis=0), [4.0, 0.25], atol=0.08)

    def test_sample_set_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.0], [np.nan]]), 0)


class TestPdf:
    def test_standard_normal_at_zero(self):
        assert Gauss1D(0, 1).pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_far_tail_underflows_to_zero(self):
        v = Gauss1D(0, 1).pdf(40.0)
        assert 0.0 <= v < 1e-300

    def test_degenerate_mixture_equals_gaussian(self):
        mix = GaussMixture1D(((1.0, 0.0, 1.0),))
        x = np.linspace(-4, 4, 101)
        assert np.allclose(mix.pdf(x), Gauss1D(0, 1).pdf(x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Gauss2D().pdf(np.zeros(3))
        with pytest.raises(ValueError):
            Gauss1D().pdf(np.zeros((5, 2)))

    @pytest.mark.parametrize(
        "density",
        [
            Gauss1D(0, 1),
            Gauss1D(-3, 0.2),
            GaussMixture1D(((0.25, -2, 0.5), (0.75, 1, 2.0))),
        ],
    )
    def test_pdf_integrates_to_one(self, density):
        (lo, hi) = density.support_hint[0]
        val, _ = integrate.quad(lambda x: density.pdf(x), lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_gauss2d_integrates_to_one(self):
        g = Gauss2D((0.5, 0.0), (1.0, 2.0))
        (l0, h0), (l1, h1) = g.support_hint
        x = np.linspace(l0, h0, 801)
        y = np.linspace(l1, h1, 801)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        vals = g.pdf(pts).reshape(801, 801)
        total = np.trapezoid(np.trapezoid(vals, y, axis=1), x)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestValidation:
    def test_nonpositive_std(self):
        with pytest.raises(ValueError):
            Gauss1D(0, 0.0)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussMixture1D(((0.5, 0, 1), (0.6, 1, 1)))

    def test_mixture_weights_nonnegative(self):
        with pytest.raises(ValueError):
            GaussMixture1D(((1.5, 0, 1), (-0.5, 1, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Gauss1D(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Gauss1D(0.0, abs(bad))
        with pytest.raises(ValueError, match="finite"):
            GaussMixture1D(((bad, 0, 1), (0.5, 1, 1)))
        with pytest.raises(ValueError, match="finite"):
            GaussMixture1D(((0.5, bad, 1), (0.5, 1, 1)))
        with pytest.raises(ValueError, match="finite"):
            GaussMixture1D(((0.5, 0, abs(bad)), (0.5, 1, 1)))
        with pytest.raises(ValueError, match="finite"):
            Gauss2D((0.0, bad), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Gauss2D((0.0, 0.0), (abs(bad), 1.0))


class TestAnalyticTV:
    def test_identical(self):
        assert analytic_tv_gauss1d(Gauss1D(0, 1), Gauss1D(0, 1)) == 0.0

    def test_unit_shift(self):
        v = analytic_tv_gauss1d(Gauss1D(0, 1), Gauss1D(1, 1))
        assert v == pytest.approx(0.3829249, abs=1e-6)

    def test_disjoint_limit(self):
        v = analytic_tv_gauss1d(Gauss1D(0, 1), Gauss1D(100, 1))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_unequal_std_vs_dense_quadrature(self):
        a, b = Gauss1D(0.3, 0.8), Gauss1D(-0.5, 1.7)
        v = analytic_tv_gauss1d(a, b)
        x = np.linspace(-20, 20, 2**17 + 1)
        ref = 0.5 * np.trapezoid(np.abs(a.pdf(x) - b.pdf(x)), x)
        assert v == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Gauss1D(0.3, 1.2), Gauss1D(-1.1, 1.2)),  # equal std
            (Gauss1D(0.5, 0.7), Gauss1D(0.5, 2.0)),  # equal mean
            (Gauss1D(0.0, 1.0), Gauss1D(0.8, 1.0 + 1e-9)),  # std ratio 1 + 1e-9
            (Gauss1D(0.3, 0.7), Gauss1D(-2.2, 0.7 * (1.0 + 1e-12))),  # ratio 1 + 1e-12
            (Gauss1D(-20.0, 1.0), Gauss1D(20.0, 1.5)),  # means 40 apart
            *_oracle_pairs(),
        ],
    )
    def test_matches_quadrature_oracle(self, a, b):
        assert analytic_tv_gauss1d(a, b) == pytest.approx(_tv_by_quadrature(a, b), abs=1e-11)

    def test_symmetry_zero_iff_equal_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = Gauss1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.5)))
            b = Gauss1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.5)))
            ab = analytic_tv_gauss1d(a, b)
            ba = analytic_tv_gauss1d(b, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert 0.0 <= ab <= 1.0
            if (a.mean, a.std) != (b.mean, b.std):
                assert ab > 0.0

    @pytest.mark.parametrize("mean", [0.01, 0.3, 3.0])
    @pytest.mark.parametrize("collapsed_first", [True, False], ids=["narrow_a", "narrow_b"])
    def test_collapsed_gaussian(self, mean, collapsed_first):
        # a point-like Gaussian against N(0, 1): TV is 1 less the standard
        # normal's mass on the narrow interval between the two crossings
        tvs = []
        for ratio in COLLAPSED_RATIOS:
            a, b = Gauss1D(mean, ratio), Gauss1D(0.0, 1.0)
            if not collapsed_first:
                a, b = b, a
            crossings = _gauss_crossings(a, b)
            assert len(crossings) == 2
            for x in crossings:
                residual, size = _log_ratio_terms(a, b, x)
                assert abs(residual) <= 4 * sys.float_info.epsilon * size
            tvs.append(analytic_tv_gauss1d(a, b))
        assert all(abs(tv - 1.0) <= 1e-5 for tv in tvs)
        assert tvs == sorted(tvs)  # does not decrease as the ratio falls

    @pytest.mark.parametrize("mean", [0.0, 0.3, 3.0])
    def test_crossings_near_equal_stds(self, mean):
        # at equal means the quadratic terms are as small as the log term, so
        # the oracle's log term must be accurate for ratios near 1 (as a
        # plain log(s_b/s_a) it scored these crossings at up to 2.5e8 eps)
        for ratio in (1 + 6e-11, 1 + 1e-8, 1 + 1e-4, 1.25, 0.75, 1 - 1e-9):
            pairs = [
                (Gauss1D(mean, 1.0), Gauss1D(0.0, ratio)),
                (Gauss1D(0.0, ratio), Gauss1D(mean, 1.0)),
                (Gauss1D(mean, 1.0), Gauss1D(mean + 1e-9, ratio)),
            ]
            for a, b in pairs:
                crossings = _gauss_crossings(a, b)
                assert len(crossings) == 2
                for x in crossings:
                    residual, size = _log_ratio_terms(a, b, x)
                    assert abs(residual) <= 4 * sys.float_info.epsilon * size

    @pytest.mark.parametrize("mean", [0.01, 0.3, 3.0])
    @pytest.mark.parametrize("collapsed_first", [True, False], ids=["narrow_a", "narrow_b"])
    def test_collapsed_past_squared_std_underflow(self, mean, collapsed_first):
        # (1e-170)^2 underflows to 0, so no crossing may be formed from a
        # squared std or a squared product of the two
        tvs = []
        for ratio in (1e-160, 1e-170, 1e-200, 1e-250, 1e-300):
            a, b = Gauss1D(mean, ratio), Gauss1D(0.0, 1.0)
            if not collapsed_first:
                a, b = b, a
            tvs.append(analytic_tv_gauss1d(a, b))
        assert all(abs(tv - 1.0) <= 1e-5 for tv in tvs)
        assert tvs == sorted(tvs)

    @pytest.mark.parametrize("mean", [0.01, 0.3, 3.0])
    @pytest.mark.parametrize("collapsed_first", [True, False], ids=["narrow_a", "narrow_b"])
    def test_collapsed_past_std_ratio_overflow(self, mean, collapsed_first, monkeypatch):
        # 1 / 1e-309 overflows to inf, so no crossing may be formed from the
        # wider std over the narrower; the sum is read before the clamp to 1,
        # since min(1.0, nan) returns 1.0
        sums = []
        monkeypatch.setattr(
            distributions, "min", lambda one, tv: sums.append(tv) or min(one, tv), raising=False
        )
        tvs = []
        for ratio in (1e-300, 1e-308, 1e-309, 1e-320, 5e-324):
            a, b = Gauss1D(mean, ratio), Gauss1D(0.0, 1.0)
            if not collapsed_first:
                a, b = b, a
            crossings = _gauss_crossings(a, b)
            assert len(crossings) == 2 and all(map(math.isfinite, crossings))
            tvs.append(analytic_tv_gauss1d(a, b))
        assert len(sums) == 5 and all(map(math.isfinite, sums))
        assert all(abs(tv - 1.0) <= 1e-5 for tv in tvs)
        assert tvs == sorted(tvs)


class TestKL:
    def test_identical(self):
        assert kl_gauss1d(Gauss1D(0, 1), Gauss1D(0, 1)) == 0.0

    def test_half_shift(self):
        assert kl_gauss1d(Gauss1D(0.5, 1), Gauss1D(0, 1)) == pytest.approx(0.125)

    def test_double_scale(self):
        v = kl_gauss1d(Gauss1D(0, 2), Gauss1D(0, 1))
        assert v == pytest.approx(1.5 - math.log(2.0))

    def test_pinsker_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = Gauss1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.5)))
            b = Gauss1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 2.5)))
            tv = analytic_tv_gauss1d(a, b)
            assert tv <= math.sqrt(kl_gauss1d(a, b) / 2.0) + 1e-9
