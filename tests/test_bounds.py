import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sclab.bounds import (
    BoundInputs,
    CoefficientTable,
    alpha_requirement,
    balanced_coefficients_gamma,
    bound_diffusion,
    bound_fixed_ratio,
    bound_flow,
    bound_kde,
    bound_real_each_gen,
    bound_table_rows,
    coefficients,
    coefficients_bruteforce,
    f_lambda,
    f_lambda_direct,
    lambda_star,
    required_samples_balanced,
    required_samples_quartic,
)
from sclab.mixing import MixtureSchedule

from test_mixing import normalized_rows


class TestCoefficients:
    def test_full_synthetic_all_ones(self):
        table = coefficients(MixtureSchedule.full_synthetic(5), 5)
        assert table.values == (1.0,) * 6

    def test_balanced_hand_recursion(self):
        table = coefficients(MixtureSchedule.balanced(2), 2)
        assert table.values[0] == pytest.approx(0.5, abs=1e-15)
        assert table.values[1] == pytest.approx(1 / 3, abs=1e-15)
        assert table.values[2] == 1.0

    def test_no_propagation_when_all_real(self):
        sched = MixtureSchedule.general([(1.0, (0.0,) * i) for i in (1, 2, 3)])
        table = coefficients(sched, 3)
        assert table.values == (0.0, 0.0, 0.0, 1.0)

    def test_fixed_ratio_geometric(self):
        n, m, i = 100, 300, 6
        rho = m / (n + m)
        table = coefficients(MixtureSchedule.fixed_ratio(n, m, i), i)
        for k, v in enumerate(table.values):
            assert v == pytest.approx(rho ** (i - k), rel=1e-13)

    def test_real_each_gen_geometric(self):
        alpha, i = 0.3, 5
        table = coefficients(MixtureSchedule.real_each_gen(alpha, i), i)
        for k, v in enumerate(table.values):
            assert v == pytest.approx((1 - alpha) ** (i - k), rel=1e-13)

    def test_generation_zero(self):
        assert coefficients(MixtureSchedule.balanced(1), 0).values == (1.0,)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            CoefficientTable(generation=1, values=(0.5, 0.9))


def per_entry_recursion(schedule: MixtureSchedule, i: int) -> tuple[float, ...]:
    """A_t = sum_{j=t+1}^{i} beta_j^{t+1} A_j written out entry by entry, reading
    the row of every weight afresh."""
    a = np.zeros(i + 1)
    a[i] = 1.0
    for t in range(i - 1, -1, -1):
        a[t] = sum(schedule.weights_at(j)[1][t] * a[j] for j in range(t + 1, i + 1))
    return tuple(float(v) for v in a)


class TestPerEntryRecursion:
    """Bit-equality with the written-out recursion, beyond the brute-force
    oracle's i <= 12."""

    def test_random_general_schedule(self):
        rng = np.random.default_rng(40)
        rows = []
        for j in range(1, 41):
            w = rng.random(j + 1)
            w /= w.sum()
            rows.append((w[0], w[1:]))
        sched = MixtureSchedule.general(rows)
        got = coefficients(sched, 40).values
        assert np.array(got).tobytes() == np.array(per_entry_recursion(sched, 40)).tobytes()

    def test_balanced_200(self):
        sched = MixtureSchedule.balanced(200)
        got = coefficients(sched, 200).values
        assert np.array(got).tobytes() == np.array(per_entry_recursion(sched, 200)).tobytes()


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "schedule,i",
        [
            (MixtureSchedule.full_synthetic(3), 3),
            (MixtureSchedule.balanced(2), 2),
            (MixtureSchedule.balanced(6), 6),
            (MixtureSchedule.fixed_ratio(100, 300, 5), 5),
            (MixtureSchedule.real_each_gen(0.4, 5), 5),
        ],
    )
    def test_named_schedules(self, schedule, i):
        fast = coefficients(schedule, i).values
        slow = coefficients_bruteforce(schedule, i).values
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12

    @given(rows=normalized_rows(6))
    @settings(max_examples=150, deadline=None)
    def test_random_general_schedules(self, rows):
        sched = MixtureSchedule.general(rows)
        fast = coefficients(sched, 6).values
        slow = coefficients_bruteforce(sched, 6).values
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12

    def test_generation_limit(self):
        with pytest.raises(ValueError):
            coefficients_bruteforce(MixtureSchedule.full_synthetic(13), 13)


class TestBalancedGammaForm:
    """The Gamma-ratio form of the uniform-mixture coefficients.

    Its sums count only consecutive substitution chains, so they agree with
    the exact recursion for the last three entries (k >= i - 2) but
    under-count the branched chains feeding earlier generations. Both
    objects ship: the recursion is the exact table, the Gamma form defines
    the front-loaded sample schedule.
    """

    def test_matches_factorial_arithmetic(self):
        for i in range(1, 11):
            gam = balanced_coefficients_gamma(i)
            ref = [
                sum(math.factorial(j + 1) for j in range(k, i)) / math.factorial(i + 1)
                for k in range(i)
            ] + [1.0]
            assert max(abs(a - b) for a, b in zip(gam, ref)) <= 1e-12

    def test_agrees_with_recursion_up_to_i2(self):
        for i in (1, 2):
            rec = coefficients(MixtureSchedule.balanced(i), i).values
            gam = balanced_coefficients_gamma(i)
            assert max(abs(a - b) for a, b in zip(rec, gam)) <= 1e-12

    def test_tail_entries_agree_for_larger_i(self):
        for i in range(3, 11):
            rec = coefficients(MixtureSchedule.balanced(i), i).values
            gam = balanced_coefficients_gamma(i)
            for k in range(i - 2, i + 1):
                assert rec[k] == pytest.approx(gam[k], abs=1e-12)

    def test_known_divergence_at_i3(self):
        # exact expansion gives A_0 = 1/2; the gamma form gives 3/8
        rec = coefficients(MixtureSchedule.balanced(3), 3).values
        gam = balanced_coefficients_gamma(3)
        assert rec[0] == pytest.approx(float(Fraction(1, 2)), abs=1e-15)
        assert gam[0] == pytest.approx(float(Fraction(3, 8)), abs=1e-15)


class TestBoundDiffusion:
    def test_full_synthetic_example(self):
        inputs = BoundInputs(n=(16, 16, 16), d=1, delta=0.5)
        v = bound_diffusion(MixtureSchedule.full_synthetic(2), inputs)
        assert v == pytest.approx(2 * 16**-0.25 * math.sqrt(math.log(4.0)), rel=1e-12)
        assert v == pytest.approx(1.17741, abs=1e-5)

    def test_balanced_coefficient_sum(self):
        inputs = BoundInputs(n=(64, 64, 64), d=1, delta=0.5)
        v = bound_diffusion(MixtureSchedule.balanced(2), inputs)
        term = 64**-0.25 * math.sqrt(math.log(2 / 0.5))
        assert v == pytest.approx((1 + 1 / 3 + 1 / 2) * term, rel=1e-12)

    def test_vanishes_as_n_grows(self):
        big = BoundInputs(n=(10**12, 10**12), d=1, delta=0.1)
        assert bound_diffusion(MixtureSchedule.balanced(1), big) < 1e-2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            BoundInputs(n=(16, 16), kl_terms=(0.0,))

    def test_monotone_in_counts_and_kl(self):
        sched = MixtureSchedule.balanced(3)
        base = BoundInputs(n=(50, 60, 70, 80), d=1, delta=0.2, kl_terms=(0.1,) * 4)
        v0 = bound_diffusion(sched, base)
        for k in range(4):
            n = list(base.n)
            n[k] *= 2
            assert bound_diffusion(sched, BoundInputs(n=tuple(n), d=1, delta=0.2, kl_terms=base.kl_terms)) < v0
            kl = list(base.kl_terms)
            kl[k] *= 2.0
            assert bound_diffusion(sched, BoundInputs(n=base.n, d=1, delta=0.2, kl_terms=tuple(kl))) > v0


class TestBoundKde:
    def test_rate_term_arithmetic(self):
        inputs = BoundInputs(n=(4096,), d=1, delta=1 / math.e, s=2)
        v = bound_kde(MixtureSchedule.balanced(1), inputs)
        # i = 0: single generation, log term is 1
        assert v == pytest.approx(4096 ** (-1 / 3) + 4096 ** (-5 / 12), rel=1e-12)
        assert 4096 ** (-1 / 3) == pytest.approx(0.0625)

    def test_s_equals_d_quartic_rate(self):
        assert 2 / (2 * 2 + 2 * 2) == 0.25  # exponent s/(2s+2d) at s == d

    def test_requires_s(self):
        with pytest.raises(ValueError):
            bound_kde(MixtureSchedule.balanced(1), BoundInputs(n=(16, 16)))

    def test_vanishes_as_n_grows(self):
        inputs = BoundInputs(n=(10**15,) * 3, d=1, delta=0.1, s=2)
        assert bound_kde(MixtureSchedule.balanced(2), inputs) < 1e-2


class TestBoundFlow:
    def test_zero_cap(self):
        inputs = BoundInputs(n=(16, 16), d=1, delta=0.5, R=0.0)
        assert bound_flow(MixtureSchedule.full_synthetic(1), inputs) == 0.0

    def test_single_term_arithmetic(self):
        inputs = BoundInputs(n=(16, 16), d=1, delta=1 / math.e, R=1.0)
        v = bound_flow(MixtureSchedule.full_synthetic(1), inputs)
        assert v == pytest.approx(16**-0.25 * math.sqrt(2.0), rel=1e-12)
        assert v == pytest.approx(0.70711, abs=1e-5)

    def test_quartic_homogeneity(self):
        sched = MixtureSchedule.balanced(2)
        a = bound_flow(sched, BoundInputs(n=(32, 32, 32), d=1, delta=0.3, R=2.0))
        b = bound_flow(sched, BoundInputs(n=(64, 64, 64), d=1, delta=0.3, R=2.0))
        assert b == pytest.approx(a * 2**-0.25, rel=1e-12)

    def test_requires_cap(self):
        with pytest.raises(ValueError):
            bound_flow(MixtureSchedule.balanced(1), BoundInputs(n=(16, 16)))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("s", -1, "smoothness order"),
        ("s", 0, "smoothness order"),
        ("R", -1.5, "norm cap"),
        ("R", math.nan, "norm cap"),
        ("R", math.inf, "norm cap"),
    ],
)
def test_bound_inputs_refuse_invalid_order_and_cap(field, value, message):
    with pytest.raises(ValueError, match=message):
        BoundInputs(n=(16, 16), **{field: value})


# i = 2, d = 1, delta = 1/2, so log(i / delta) = log 4; each term is written by hand
LOG4 = math.log(4.0)
TABLE_FAMILIES = {
    "diffusion": (
        bound_diffusion,
        BoundInputs(n=(16, 81, 256), delta=0.5, kl_terms=(0.04, 0.09, 0.0)),
        (0.5 * math.sqrt(LOG4) + 0.2, math.sqrt(LOG4) / 3 + 0.3, 0.25 * math.sqrt(LOG4)),
    ),
    "kde": (  # s = 2: rate 1/3, variance rate 5/12
        bound_kde,
        BoundInputs(n=(8, 27, 64), delta=0.5, s=2),
        tuple(n ** (-1 / 3) * math.sqrt(LOG4) + n ** (-5 / 12) for n in (8, 27, 64)),
    ),
    "flow": (  # R = 2: R * sqrt(1 + R^2) = 2 sqrt(5)
        bound_flow,
        BoundInputs(n=(16, 81, 256), delta=0.5, R=2.0),
        tuple(q * 2 * math.sqrt(5.0) * LOG4**0.25 for q in (0.5, 1 / 3, 0.25)),
    ),
}
TABLE_SCHEDULES = {
    "full_synthetic": (MixtureSchedule.full_synthetic(2), (1.0, 1.0, 1.0)),
    "balanced": (MixtureSchedule.balanced(2), (1 / 2, 1 / 3, 1.0)),
    "fixed_ratio": (MixtureSchedule.fixed_ratio(1, 3, 2), (9 / 16, 3 / 4, 1.0)),
}


class TestBoundTableRows:
    @pytest.mark.parametrize("family", TABLE_FAMILIES)
    @pytest.mark.parametrize("kind", TABLE_SCHEDULES)
    def test_rows_match_closed_form(self, family, kind):
        evaluator, inputs, terms = TABLE_FAMILIES[family]
        schedule, a = TABLE_SCHEDULES[kind]
        rows = bound_table_rows(schedule, inputs, family)
        assert [(r["schedule"], r["i"], r["k"]) for r in rows] == [(kind, 2, k) for k in range(3)]
        for row, a_k, term in zip(rows, a, terms, strict=True):
            assert row["A_k"] == pytest.approx(a_k, rel=1e-12)
            assert row["bound_term"] == pytest.approx(term, rel=1e-12)
        total = evaluator(schedule, inputs)
        assert all(r["total_bound"] == total for r in rows)
        # the fully synthetic form sums generations 1..i only
        ks = range(1, 3) if kind == "full_synthetic" else range(3)
        assert total == math.fsum(rows[k]["A_k"] * rows[k]["bound_term"] for k in ks)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown bound family"):
            bound_table_rows(MixtureSchedule.balanced(1), BoundInputs(n=(16, 16)), "gan")


class TestClosedFormSchedules:
    def test_fixed_ratio_equals_generic_sum(self):
        for n, m, i in [(128, 128, 1), (100, 300, 4), (50, 10, 7), (64, 0, 3)]:
            lhs = bound_fixed_ratio(n, m, i, d=2, delta=0.2, kl=0.01)
            sched = MixtureSchedule.fixed_ratio(n, m, i)
            rhs = bound_diffusion(
                sched,
                BoundInputs(n=(n + m,) * (i + 1), d=2, delta=0.2, kl_terms=(0.01,) * (i + 1)),
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_prefactor_equal_split(self):
        v = bound_fixed_ratio(100, 100, 1, d=1, delta=0.5, kl=0.0)
        term = 200**-0.25 * math.sqrt(math.log(2.0))
        assert v == pytest.approx(1.5 * term, rel=1e-12)

    def test_no_synthetic_prefactor_one(self):
        v = bound_fixed_ratio(100, 0, 3, d=1, delta=0.5, kl=0.0)
        term = 100**-0.25 * math.sqrt(math.log(3 / 0.5))
        assert v == pytest.approx(term, rel=1e-12)

    def test_prefactor_limit_is_generation_count(self):
        i = 4
        pref = (1 + 10**9 / 1) * (1 - (10**9 / (1 + 10**9)) ** (i + 1))
        assert pref == pytest.approx(i + 1, rel=1e-6)

    def test_real_each_gen_factor(self):
        v = bound_real_each_gen(0.5, 3, 256, d=1, delta=0.5, kl=0.0)
        term = 256**-0.25 * math.sqrt(math.log(3 / 0.5))
        assert v == pytest.approx(1.875 * term, rel=1e-12)

    def test_real_each_gen_equals_generic_sum(self):
        alpha, i, n = 0.35, 5, 500
        lhs = bound_real_each_gen(alpha, i, n, d=1, delta=0.1, kl=0.0)
        rhs = bound_diffusion(
            MixtureSchedule.real_each_gen(alpha, i),
            BoundInputs(n=(n,) * (i + 1), d=1, delta=0.1),
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_factor_limits(self):
        i = 3
        almost_one = (1 - (1 - (1 - 1e-9)) ** (i + 1)) / (1 - 1e-9)
        assert bound_real_each_gen(1 - 1e-9, i, 100) == pytest.approx(
            bound_real_each_gen(1 - 1e-9, i, 100) / almost_one * almost_one
        )
        # alpha -> 0: the factor tends to i + 1 (linear error accumulation)
        tiny = bound_real_each_gen(1e-6, i, 100, d=1, delta=0.5, kl=0.0)
        term = 100**-0.25 * math.sqrt(math.log(i / 0.5))
        assert tiny == pytest.approx((i + 1) * term, rel=1e-5)

    def test_closed_forms_bit_equal_written_out_term(self):
        # the diffusion term comes from _terms, whose operations run in this order
        n, m, alpha, i, d, delta, kl = 100, 300, 0.35, 4, 2, 0.2, 0.01
        log_term = math.sqrt(d * math.log(d * i / delta))
        prefactor = (1.0 + m / n) * (1.0 - (m / (n + m)) ** (i + 1))
        factor = (1.0 - (1.0 - alpha) ** (i + 1)) / alpha
        assert bound_fixed_ratio(n, m, i, d, delta, kl) == prefactor * (
            (n + m) ** -0.25 * log_term + math.sqrt(kl)
        )
        assert bound_real_each_gen(alpha, i, n, d, delta, kl) == factor * (
            n**-0.25 * log_term + math.sqrt(kl)
        )

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
    def test_closed_forms_refuse_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            bound_fixed_ratio(100, 100, 2, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            bound_real_each_gen(0.5, 2, 100, delta=delta)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            bound_real_each_gen(0.0, 2, 100)
        with pytest.raises(ValueError):
            bound_real_each_gen(1.0, 2, 100)


class TestPhaseTransition:
    def test_at_zero(self):
        for i in range(1, 8):
            assert f_lambda(0.0, i) == 1.0

    def test_known_value(self):
        assert f_lambda(1.0, 2) == pytest.approx(7.0 / 2**2.25, abs=1e-10)

    def test_large_lambda_asymptote(self):
        for i in range(1, 7):
            lam = 1e9
            assert f_lambda(lam, i) == pytest.approx(
                (i + 1) * (1 + lam) ** -0.25, rel=1e-6
            )

    def test_direct_and_factored_agree(self):
        grid = np.concatenate([np.linspace(0, 10, 301), np.geomspace(10, 1e6, 300)])
        for i in range(1, 7):
            for lam in grid:
                a = f_lambda(float(lam), i)
                b = f_lambda_direct(float(lam), i)
                assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)

    def test_peak_location_rise_then_fall(self):
        for i in range(1, 7):
            star = lambda_star(i)
            assert f_lambda(0.9 * star, i) < f_lambda(star, i)
            assert f_lambda(1.1 * star, i) < f_lambda(star, i)

    def test_peak_increases_with_generation(self):
        stars = [lambda_star(i) for i in range(1, 7)]
        assert all(b > a for a, b in zip(stars, stars[1:]))

    def test_first_generation_peak_is_three_halves(self):
        # closed-form stationary point of the i=1 curve
        assert lambda_star(1) == pytest.approx(1.5, abs=1e-6)

    def test_grid_scan_oracle(self):
        for i in (1, 3, 6):
            star = lambda_star(i)
            lam = np.arange(0.0, 4 * star, 1e-4)
            vals = (1 + lam) ** 0.75 * (1 - (lam / (1 + lam)) ** (i + 1))
            k = int(np.argmax(vals))
            y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
            refined = lam[k] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * 1e-4
            assert star == pytest.approx(refined, abs=1e-6)

    def test_low_generation_peaks_are_closed_form_roots(self):
        # i = 1: 3(1 + u) = 8u gives u = 3/5; i = 2: 3(1 + u + u^2) = 12u^2
        assert lambda_star(1) == pytest.approx(1.5, rel=1e-12)
        u = (1 + math.sqrt(13)) / 6
        assert lambda_star(2) == pytest.approx(u / (1 - u), rel=1e-12)

    def test_first_order_residual(self):
        for i in range(1, 51):
            star = lambda_star(i)
            u = star / (1 + star)
            s = math.fsum(u**j for j in range(i + 1))
            edge = 4 * (i + 1) * u**i
            assert abs(3 * s - edge) <= 1e-12 * edge

    @pytest.mark.parametrize("i", [600_000, 10**9])
    def test_large_generation_limit(self, i):
        # with lam = (i+1)/x, the condition tends to 4x = 3(e^x - 1)
        x = brentq(lambda x: 4 * x - 3 * math.expm1(x), 0.1, 2.0, xtol=1e-15)
        assert 1 / x == pytest.approx(1.8175184515, abs=1e-10)
        assert lambda_star(i) / (i + 1) == pytest.approx(1 / x, rel=1e-5)

    @pytest.mark.parametrize("i", [*range(1, 101), 10**3, 10**4, 10**5, 10**6])
    def test_matches_brentq_oracle(self, i):
        # 3 S(u) = 4(i+1) u**i divided by u**i, in x = 1/lam:
        # sum_{k=0}^{i} (1 + x)**k = expm1((i+1) log1p(x)) / x = 4(i+1)/3
        def g(lam):
            return 3.0 * lam * math.expm1((i + 1) * math.log1p(1.0 / lam)) - 4.0 * (i + 1)

        ref = brentq(g, float(i), 4.0 * i, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert lambda_star(i) == pytest.approx(ref, rel=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_lambda(-0.1, 2)
        with pytest.raises(ValueError):
            lambda_star(0)


# required_samples_balanced(i, 1, 0.1) for i = 1..20, pinned to the values of
# the earlier inline Gamma-ratio loop; both sums use math.fsum, so they agree
BALANCED_SIZES_D1_EPS01 = {
    1: (10000, 10000),
    2: (50625, 10000, 10000),
    3: (50625, 31605, 10000, 10000),
    4: (35745, 31605, 24415, 10000, 10000),
    5: (26427, 25743, 24415, 20736, 10000, 10000),
    6: (21614, 21515, 21319, 20736, 18527, 10000, 10000),
    7: (18946, 18933, 18908, 18831, 18527, 17060, 10000, 10000),
    8: (17288, 17286, 17283, 17274, 17238, 17060, 16019, 10000, 10000),
    9: (16156,) * 3 + (16155, 16151, 16132, 16019, 15242, 10000, 10000),
    10: (15332,) * 4 + (15331, 15329, 15318, 15242, 14641, 10000, 10000),
    11: (14703,) * 6 + (14702, 14695, 14641, 14163, 10000, 10000),
    12: (14208,) * 7 + (14207, 14203, 14163, 13774, 10000, 10000),
    13: (13807,) * 9 + (13804, 13774, 13451, 10000, 10000),
    14: (13476,) * 10 + (13474, 13451, 13179, 10000, 10000),
    15: (13198,) * 11 + (13197, 13179, 12946, 10000, 10000),
    16: (12962,) * 11 + (12961, 12960, 12946, 12745, 10000, 10000),
    17: (12757,) * 14 + (12745, 12569, 10000, 10000),
    18: (12580,) * 14 + (12579, 12569, 12415, 10000, 10000),
    19: (12423,) * 16 + (12415, 12278, 10000, 10000),
    20: (12285,) * 17 + (12278, 12156, 10000, 10000),
}


class TestSampleSchedules:
    def test_quartic_example(self):
        assert required_samples_quartic(2, 4, 0.5) == 4096

    def test_quartic_unit(self):
        assert required_samples_quartic(1, 1, 1.0) == 1

    def test_quartic_homogeneity(self):
        assert required_samples_quartic(4, 1, 0.5) == 16 * required_samples_quartic(2, 1, 0.5)

    def test_balanced_example(self):
        assert required_samples_balanced(2, 1, 1.0) == (6, 1, 1)

    def test_balanced_nonincreasing(self):
        for i in range(1, 11):
            counts = required_samples_balanced(i, 2, 0.7)
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_balanced_pinned_values(self):
        for i, expected in BALANCED_SIZES_D1_EPS01.items():
            assert required_samples_balanced(i, 1, 0.1) == expected

    def test_balanced_pinned_values_irrational_base(self):
        # sqrt(3) / 0.3 is not exact in binary, so the ceiling sees round-off
        assert required_samples_balanced(1, 3, 0.3) == (1112, 1112)
        assert required_samples_balanced(5, 3, 0.3) == (2937, 2861, 2713, 2304, 1112, 1112)
        assert required_samples_balanced(10, 3, 0.3) == (1704,) * 6 + (
            1702, 1694, 1627, 1112, 1112
        )
        assert required_samples_balanced(20, 3, 0.3) == (1365,) * 18 + (1351, 1112, 1112)

    def test_balanced_blows_up_as_eps_shrinks(self):
        small = required_samples_balanced(3, 1, 1e-3)
        assert small[0] > 10**9

    def test_alpha_requirement(self):
        assert alpha_requirement(5) == pytest.approx(0.8)
        assert alpha_requirement(1) == 0.0
        values = [alpha_requirement(i) for i in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
