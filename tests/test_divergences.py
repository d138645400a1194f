import math

import numpy as np
import pytest

from sclab.distributions import Gauss1D, Gauss2D, SampleSet
from sclab.divergences import (
    MIN_NODES,
    TVEstimate,
    default_bins,
    kl_quadrature,
    tv_grid,
    tv_histogram,
    tv_on_grid,
    tv_quadrature,
)

STD_BOX = ((-12.0, 12.0),)


def _pair_box(a, b):
    lo = min(a.support_hint[0][0], b.support_hint[0][0])
    hi = max(a.support_hint[0][1], b.support_hint[0][1])
    return ((lo, hi),)


class TestTVQuadrature:
    def test_identical_pdfs(self):
        g = Gauss1D(0, 1)
        est = tv_quadrature(g.pdf, g.pdf, STD_BOX)
        assert est.value <= 1e-10
        assert est.method == "quadrature"

    def test_unit_shift_matches_erf_oracle(self):
        a, b = Gauss1D(0, 1), Gauss1D(1, 1)
        est = tv_quadrature(a.pdf, b.pdf, _pair_box(a, b))
        assert est.value == pytest.approx(0.3829249, abs=1e-4)
        assert abs(est.value - 0.38292492254802624) <= est.tolerance

    def test_signed_estimate_handled(self):
        # an integrand with negative lobes still yields a valid TV value
        g = Gauss1D(0, 1)
        signed = lambda pts: g.pdf(pts) * np.cos(np.asarray(pts)[:, 0] * 3.0)
        est = tv_quadrature(signed, g.pdf, STD_BOX)
        assert 0.0 <= est.value <= 1.0

    def test_two_dimensional(self):
        a = Gauss2D((0, 0), (1, 1))
        b = Gauss2D((1, 0), (1, 1))
        est = tv_quadrature(a.pdf, b.pdf, ((-8, 9), (-8, 8)), nodes=1024)
        # product structure: TV equals the 1-d unit-shift value
        assert est.value == pytest.approx(0.3829249, abs=1e-3)

    def test_rejects_three_dims_and_small_grids(self):
        g = Gauss1D(0, 1)
        with pytest.raises(ValueError):
            tv_quadrature(g.pdf, g.pdf, ((-1, 1),) * 3)
        with pytest.raises(ValueError):
            tv_quadrature(g.pdf, g.pdf, STD_BOX, nodes=512)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            ds = [
                Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 2.0)))
                for _ in range(3)
            ]
            box = ((-25.0, 25.0),)
            ab = tv_quadrature(ds[0].pdf, ds[1].pdf, box, nodes=2048)
            bc = tv_quadrature(ds[1].pdf, ds[2].pdf, box, nodes=2048)
            ac = tv_quadrature(ds[0].pdf, ds[2].pdf, box, nodes=2048)
            slack = 2 * (ab.tolerance + bc.tolerance + ac.tolerance)
            assert ac.value <= ab.value + bc.value + slack


def _bits(est):
    return [est.value.hex(), est.tolerance.hex(), est.raw_value.hex()]


def _signed(pts):
    return Gauss1D(0, 1).pdf(pts) * np.cos(np.asarray(pts)[:, 0] * 3.0)


SPLIT_CASES = {
    "1d_even": (Gauss1D(0, 1).pdf, Gauss1D(1, 1).pdf, ((-11.0, 12.0),), 1024),
    "1d_odd": (Gauss1D(0, 1).pdf, Gauss1D(0.5, 2).pdf, ((-20.0, 20.0),), 2049),
    "1d_signed": (_signed, Gauss1D(0, 1).pdf, STD_BOX, 4096),
    "2d_even": (Gauss2D((0, 0), (1, 1)).pdf, Gauss2D((1, 0), (1, 2)).pdf, ((-8, 9), (-9, 9)), 1024),
    "2d_odd": (Gauss2D((0, 0), (1, 1)).pdf, Gauss2D((0, 1), (2, 1)).pdf, ((-9, 9), (-8, 9)), 1025),
}

REFUSED_GRIDS = {
    "no_dims": ((), 4096),
    "three_dims": (((-1, 1),) * 3, 4096),
    "empty_interval": (((1.0, 1.0),), 4096),
    "reversed_interval": (((-1.0, 1.0), (2.0, 1.0)), 4096),
    "two_nodes": (STD_BOX, 2),
    "512_nodes": (STD_BOX, 512),
    "odd_below_min": (STD_BOX, MIN_NODES - 1),
    "even_below_min": (STD_BOX, MIN_NODES - 2),
    "2d_below_min": (((-1, 1), (-1, 1)), MIN_NODES - 1),
}


class TestGridSplit:
    """``tv_quadrature`` is ``tv_on_grid`` of the two pdfs' values on ``tv_grid``."""

    @pytest.mark.parametrize("pdf_a, pdf_b, box, nodes", SPLIT_CASES.values(), ids=SPLIT_CASES)
    def test_quadrature_is_rule_on_grid_bit_for_bit(self, pdf_a, pdf_b, box, nodes):
        axes, pts = tv_grid(box, nodes)
        split = tv_on_grid(pdf_a(pts), pdf_b(pts), axes)
        whole = tv_quadrature(pdf_a, pdf_b, box, nodes)
        assert _bits(split) == _bits(whole)
        assert split == whole

    @pytest.mark.parametrize("nodes, odd", [(1024, 1025), (1025, 1025), (4096, 4097)])
    def test_grid_has_odd_node_count(self, nodes, odd):
        box = ((-2.0, 3.0), (-1.0, 1.0))
        axes, pts = tv_grid(box, nodes)
        assert [len(ax) for ax in axes] == [odd, odd]
        assert pts.shape == (odd * odd, 2)
        # row-major: the first axis varies slowest
        assert pts[1].tolist() == [-2.0, axes[1][1]]
        assert pts[odd].tolist() == [axes[0][1], -1.0]
        (ax,), pts_1d = tv_grid(box[:1], nodes)
        assert pts_1d.shape == (odd, 1) and ax[[0, -1]].tolist() == [-2.0, 3.0]

    @pytest.mark.parametrize("box, nodes", REFUSED_GRIDS.values(), ids=REFUSED_GRIDS)
    def test_grid_refuses_what_quadrature_refuses(self, box, nodes):
        g = Gauss1D(0, 1)
        messages = []
        for build in (
            lambda: tv_quadrature(g.pdf, g.pdf, box, nodes),
            lambda: tv_grid(box, nodes),
            lambda: kl_quadrature(g.pdf, g.pdf, box, nodes),
        ):
            with pytest.raises(ValueError) as err:
                build()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]


class TestTVHistogram:
    def test_same_set_is_zero(self):
        s = Gauss1D(0, 1).sample(1000, 1)
        assert tv_histogram(s, s).value == 0.0

    def test_disjoint_supports(self):
        a = SampleSet(np.zeros((100, 1)), 0)
        b = SampleSet(np.full((100, 1), 5.0), 0)
        assert tv_histogram(a, b, bins=4, box=((-1.0, 6.0),)).value == 1.0

    def test_independent_large_draws_small_distance(self):
        # expected discrepancy at n=1e5 / 46 bins sits near 0.01 (pilot)
        a = Gauss1D(0, 1).sample(10**5, 1)
        b = Gauss1D(0, 1).sample(10**5, 2)
        assert tv_histogram(a, b, bins=46).value < 0.03

    def test_default_bin_rule(self):
        assert default_bins(10**5, 10**5) == 47  # ceil(1e5 ** (1/3))
        assert default_bins(8, 27) == 2

    def test_empty_and_mismatch_rejected(self):
        s = Gauss1D(0, 1).sample(10, 1)
        empty = SampleSet(np.empty((0, 1)), 0)
        with pytest.raises(ValueError):
            tv_histogram(s, empty)
        with pytest.raises(ValueError):
            tv_histogram(s, Gauss2D().sample(10, 1))

    def test_converges_to_quadrature_tv(self):
        a, b = Gauss1D(0, 1), Gauss1D(1, 1)
        sa = a.sample(10**6, 11)
        sb = b.sample(10**6, 12)
        hist = tv_histogram(sa, sb, bins=100)
        quad = tv_quadrature(a.pdf, b.pdf, _pair_box(a, b))
        assert abs(hist.value - quad.value) < 0.02


class TestKLQuadrature:
    def test_identical(self):
        g = Gauss1D(0, 1)
        assert abs(kl_quadrature(g.pdf, g.pdf, STD_BOX)) < 1e-8

    def test_closed_form_half_shift(self):
        a, b = Gauss1D(0.5, 1), Gauss1D(0, 1)
        v = kl_quadrature(a.pdf, b.pdf, ((-12.0, 12.5),))
        assert v == pytest.approx(0.125, abs=1e-5)

    def test_support_violation_gives_inf(self):
        wide, narrow = Gauss1D(0, 1), Gauss1D(0, 0.05)
        assert kl_quadrature(wide.pdf, narrow.pdf, STD_BOX) == math.inf

    def test_rejects_small_grids(self):
        g = Gauss1D(0, 1)
        for nodes in (2, 512, MIN_NODES - 1):
            with pytest.raises(ValueError, match="nodes"):
                kl_quadrature(g.pdf, g.pdf, STD_BOX, nodes=nodes)
        assert abs(kl_quadrature(g.pdf, g.pdf, STD_BOX, nodes=MIN_NODES)) < 1e-8

    def test_pinsker_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.0)))
            b = Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.0)))
            box = ((-30.0, 30.0),)
            tv = tv_quadrature(a.pdf, b.pdf, box, nodes=2048)
            kl = kl_quadrature(a.pdf, b.pdf, box, nodes=2048)
            assert tv.value <= math.sqrt(kl / 2.0) + tv.tolerance + 1e-9


class TestEstimateType:
    def test_clamping_records_raw(self):
        est = TVEstimate(value=1.0, method="quadrature", tolerance=1e-3, raw_value=1.7)
        assert est.raw_value == 1.7

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TVEstimate(value=1.2, method="quadrature", tolerance=1e-3, raw_value=1.2)
        with pytest.raises(ValueError):
            TVEstimate(value=0.5, method="quadrature", tolerance=0.0, raw_value=0.5)
