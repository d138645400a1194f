import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclab.distributions import Gauss1D
from sclab.divergences import tv_quadrature
from sclab.mixing import MixtureSchedule, sample_mixture


def normalized_rows(max_generation):
    """Strategy: valid general-schedule rows built from positive seeds."""

    def build(seeds):
        rows = []
        for i, row_seed in enumerate(seeds, start=1):
            raw = np.array(row_seed[: i + 1])
            w = raw / raw.sum()
            w[0] = 1.0 - w[1:].sum()  # pin the simplex identity exactly
            rows.append((float(w[0]), tuple(float(x) for x in w[1:])))
        return rows

    return st.lists(
        st.lists(st.floats(0.01, 10.0), min_size=max_generation + 1, max_size=max_generation + 1),
        min_size=max_generation,
        max_size=max_generation,
    ).map(build)


class TestWeightsAt:
    def test_balanced_row(self):
        assert MixtureSchedule.balanced(4).weights_at(2) == (
            pytest.approx(1 / 3),
            (pytest.approx(1 / 3), pytest.approx(1 / 3)),
        )

    def test_full_synthetic_row(self):
        alpha, betas = MixtureSchedule.full_synthetic(5).weights_at(5)
        assert alpha == 0.0
        assert betas == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_fixed_ratio_row(self):
        alpha, betas = MixtureSchedule.fixed_ratio(100, 300, 4).weights_at(3)
        assert alpha == pytest.approx(0.25)
        assert betas == (0.0, 0.0, pytest.approx(0.75))

    def test_real_each_gen_row(self):
        alpha, betas = MixtureSchedule.real_each_gen(0.25, 3).weights_at(2)
        assert alpha == 0.25
        assert betas == (0.0, 0.75)

    def test_out_of_range(self):
        sched = MixtureSchedule.balanced(3)
        with pytest.raises(ValueError):
            sched.weights_at(0)
        with pytest.raises(ValueError):
            sched.weights_at(4)

    def test_general_row_validation_names_generation(self):
        with pytest.raises(ValueError, match="generation 2"):
            MixtureSchedule.general([(0.8, (0.2,)), (0.7, (0.2, 0.2))])

    def test_general_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureSchedule.general([(1.2, (-0.2,))])

    @pytest.mark.parametrize(
        "kind, fields, name",
        [
            ("balanced", {"alpha": 0.5}, "alpha"),
            ("full_synthetic", {"rows": ((1.0, ()),)}, "rows"),
            ("real_each_gen", {"alpha": 0.5, "n_real": 10}, "n_real"),
            ("fixed_ratio", {"n_real": 1, "m_synth": 3, "alpha": 0.5}, "alpha"),
            ("general", {"rows": ((0.5, (0.5,)),), "m_synth": 3}, "m_synth"),
        ],
    )
    def test_refuses_fields_of_another_kind(self, kind, fields, name):
        with pytest.raises(ValueError, match=f"^{kind} schedule takes no {name}$"):
            MixtureSchedule(kind, 1, **fields)

    @given(rows=normalized_rows(5))
    @settings(max_examples=100, deadline=None)
    def test_random_general_rows_satisfy_simplex(self, rows):
        sched = MixtureSchedule.general(rows)
        for i in range(1, 6):
            alpha, betas = sched.weights_at(i)
            assert len(betas) == i
            assert alpha >= 0 and all(b >= 0 for b in betas)
            assert abs(alpha + sum(betas) - 1.0) <= 1e-12

    def test_history_requirement(self):
        assert MixtureSchedule.balanced(3).needs_history
        assert MixtureSchedule.general([(0.5, (0.5,))]).needs_history
        assert not MixtureSchedule.full_synthetic(3).needs_history
        assert not MixtureSchedule.fixed_ratio(1, 1, 3).needs_history
        assert not MixtureSchedule.real_each_gen(0.5, 3).needs_history


class TestSampleMixture:
    def test_all_real(self):
        s = sample_mixture(Gauss1D(0, 1), [], (1.0, ()), 500, 3)
        assert s.n == 500

    def test_all_synthetic_degenerate(self):
        synth = lambda n, rng: np.full((n, 1), 3.0)
        s, counts = sample_mixture(
            Gauss1D(0, 1), [synth], (0.0, (1.0,)), 200, 5, return_counts=True
        )
        assert np.unique(s.points).tolist() == [3.0]
        assert counts.tolist() == [0, 200]

    def test_half_half_proportion(self):
        near_zero = Gauss1D(0, 1e-9)
        at_one = lambda n, rng: np.full((n, 1), 1.0)
        s = sample_mixture(near_zero, [at_one], (0.5, (0.5,)), 10**5, 7)
        frac = (np.abs(s.points - 1.0) < 1e-6).mean()
        assert abs(frac - 0.5) < 0.005

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            sample_mixture(Gauss1D(0, 1), [], (0.5, (0.5,)), 10, 0)

    def test_none_component_with_weight_rejected(self):
        with pytest.raises(ValueError, match="no sampler"):
            sample_mixture(Gauss1D(0, 1), [None], (0.0, (1.0,)), 10, 0)

    def test_none_component_with_zero_weight_allowed(self):
        synth = lambda n, rng: np.full((n, 1), 2.0)
        s = sample_mixture(Gauss1D(0, 1), [None, synth], (0.5, (0.0, 0.5)), 100, 1)
        assert s.n == 100

    def test_deterministic(self):
        synth = lambda n, rng: rng.normal(4.0, 0.1, size=(n, 1))
        a = sample_mixture(Gauss1D(0, 1), [synth], (0.5, (0.5,)), 1000, 21)
        b = sample_mixture(Gauss1D(0, 1), [synth], (0.5, (0.5,)), 1000, 21)
        assert np.array_equal(a.points, b.points)

    def test_empirical_frequencies_match_weights(self):
        rng = np.random.default_rng(2)
        n = 20000
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            comps = [
                (lambda c: (lambda m, r: np.full((m, 1), float(c))))(k)
                for k in range(1, 4)
            ]
            _, counts = sample_mixture(
                Gauss1D(100.0, 1e-9), comps, (float(w[0]), tuple(w[1:])), n, int(rng.integers(2**31)),
                return_counts=True,
            )
            for k in range(4):
                margin = 4 * math.sqrt(w[k] * (1 - w[k]) / n)
                assert abs(counts[k] / n - w[k]) <= margin + 1e-9


class TestSubadditivity:
    def test_mixture_tv_dominated_by_weighted_members(self):
        # mixing with the reference density can only shrink the distance
        rng = np.random.default_rng(11)
        p0 = Gauss1D(0, 1)
        box = ((-25.0, 25.0),)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            qs = [
                Gauss1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 2.0)))
                for _ in range(k)
            ]
            w = rng.dirichlet(np.ones(k + 1))
            alpha, betas = float(w[0]), w[1:]

            def mix_pdf(pts):
                out = alpha * p0.pdf(pts)
                for b, q in zip(betas, qs):
                    out = out + b * q.pdf(pts)
                return out

            lhs = tv_quadrature(mix_pdf, p0.pdf, box, nodes=2048).value
            rhs = sum(
                b * tv_quadrature(q.pdf, p0.pdf, box, nodes=2048).value
                for b, q in zip(betas, qs)
            )
            assert lhs <= rhs + 1e-3
