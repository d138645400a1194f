import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclab import diffusion
from sclab.diffusion import (
    DiffusionConfig,
    DiffusionModel,
    ScoreNet,
    TrainingDivergence,
    analytic_score_gauss,
    dsm_loss,
    embed_time,
    gauss_score_model,
    hessian_top_eigenvalue,
    init_scorenet,
    prior_kl_gauss,
    reverse_sample,
    reverse_sample_many,
    train,
)
from sclab.distributions import Gauss1D, SampleSet

CFG = DiffusionConfig()


def mean_conditional_target_sq(cfg: DiffusionConfig) -> float:
    """Closed form of the squared conditional score target, averaged over time.

    For the unit-rate forward process the target norm squared averages to
    1 / (1 - exp(-t)); its time integral is log(expm1(t)).
    """
    span = cfg.horizon - cfg.t_min
    return (math.log(math.expm1(cfg.horizon)) - math.log(math.expm1(cfg.t_min))) / span


class TestInit:
    def test_zero_score_at_init(self):
        net = init_scorenet(64, 1, 8, 0)
        x = np.linspace(-3, 3, 11)[:, None]
        assert np.all(net.evaluate(x, 1.0, CFG.horizon) == 0.0)

    def test_row_norm_budget(self):
        net = init_scorenet(512, 2, 8, 3)
        norms = np.linalg.norm(net.in_weights, axis=1) + np.linalg.norm(
            net.time_weights, axis=1
        )
        assert norms.max() <= 1.0 + 1e-12

    def test_deterministic(self):
        a = init_scorenet(32, 1, 4, 7)
        b = init_scorenet(32, 1, 4, 7)
        assert np.array_equal(a.in_weights, b.in_weights)
        assert np.array_equal(a.time_weights, b.time_weights)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiffusionConfig(reverse_steps=5)
        with pytest.raises(ValueError):
            DiffusionConfig(embed_dim=7)
        with pytest.raises(ValueError):
            init_scorenet(0, 1, 8, 0)

    def test_embedding_bounded(self):
        e = embed_time(np.linspace(0, 3, 50), 8, 3.0)
        assert e.shape == (50, 8)
        assert np.abs(e).max() <= 1.0


def dense_score(net: ScoreNet, x, t, horizon: float) -> np.ndarray:
    """The defining formula, one full activation block: the oracle for ``evaluate``."""
    return net.features(x, t, horizon) @ net.out_weights.T / net.width


@st.composite
def score_nets(draw):
    """Random 1-d nets: trained, random or zero output layers, with zero input
    weights and tied kinks (exact and sign-flipped duplicate rows) mixed in."""
    m = draw(st.integers(1, 40))
    net = init_scorenet(m, 1, draw(st.sampled_from([2, 4, 8])), draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for j in np.flatnonzero(rng.random(m) < draw(st.sampled_from([0.0, 0.2, 1.0]))):
        net.in_weights[j] = 0.0
    for _ in range(draw(st.integers(0, m // 2))):
        src, dst = rng.integers(0, m, size=2)
        sign = rng.choice([1.0, -1.0])
        net.in_weights[dst] = sign * net.in_weights[src]
        net.time_weights[dst] = sign * net.time_weights[src]
    layer = draw(st.sampled_from(["trained", "random", "zero"]))
    if layer == "trained":
        data = Gauss1D(draw(st.floats(-2, 2)), draw(st.floats(0.3, 2))).sample(32, 1)
        train(net, data, CFG, tau_steps=draw(st.integers(1, 8)), seed=2)
    elif layer == "random":
        net.out_weights[...] = rng.standard_normal((1, m)) * 10.0 ** rng.uniform(-3, 3)
    return net


class TestExactScore1d:
    @given(
        net=score_nets(),
        t=st.floats(0.0, 2 * CFG.horizon),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, net, t, seed):
        w = net.in_weights[:, 0]
        b = net.time_weights @ embed_time(t, net.embed_dim, CFG.horizon)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = (-b / w)[w != 0]
        rng = np.random.default_rng(seed)
        probes = [rng.normal(0.0, 3.0, 50), kinks]
        if kinks.size:  # left of every kink, right of every kink
            probes += [kinks.min() - rng.exponential(2.0, 5), kinks.max() + rng.exponential(2.0, 5)]
        x = np.concatenate(probes)[:, None]
        fast = net.evaluate(x, t, CFG.horizon)
        dense = dense_score(net, x, t, CFG.horizon)
        assert fast.shape == dense.shape == (x.shape[0], 1)
        a = net.out_weights[0]
        scale = (np.abs(a) * (np.abs(x * w) + np.abs(b))).sum(axis=1) / net.width
        assert (np.abs(fast - dense)[:, 0] <= 1e-10 * scale).all()
        if not a.any():
            assert np.all(fast == 0.0)

    def test_reverse_sample_deterministic_on_trained_net(self):
        net = init_scorenet(200, 1, 8, 4)
        train(net, Gauss1D(0.5, 0.8).sample(200, 3), CFG, seed=5)
        cfg = DiffusionConfig(reverse_steps=100)
        a = reverse_sample(net, cfg, 300, 21)
        b = reverse_sample(net, cfg, 300, 21)
        assert np.array_equal(a.points, b.points)


def count_features(monkeypatch) -> list:
    """Record each ``ScoreNet.features`` call, i.e. each dense activation block."""
    calls = []
    features = ScoreNet.features
    monkeypatch.setattr(
        ScoreNet, "features", lambda self, *args: calls.append(1) or features(self, *args)
    )
    return calls


class TestDenseScore:
    @pytest.mark.parametrize("d", [1, 2])
    def test_chunked_matches_single_pass(self, monkeypatch, d):
        net = init_scorenet(30, d, 8, 6)
        net.out_weights[...] = np.random.default_rng(1).standard_normal((d, 30))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(101, d))
        t = rng.uniform(CFG.t_min, CFG.horizon, size=101)
        whole = dense_score(net, x, t, CFG.horizon)
        calls = count_features(monkeypatch)
        monkeypatch.setattr(diffusion, "_CHUNK_CELLS", 7 * 30)
        assert np.allclose(net.evaluate(x, t, CFG.horizon), whole, rtol=0, atol=1e-12)
        assert len(calls) == 15  # ceil(101 / 7) row blocks
        if d > 1:  # a shared time broadcasts over every block
            shared = dense_score(net, x, 0.4, CFG.horizon)
            assert np.allclose(net.evaluate(x, 0.4, CFG.horizon), shared, rtol=0, atol=1e-12)

    def test_exact_path_only_for_one_dim_shared_time(self, monkeypatch):
        calls = count_features(monkeypatch)
        net1 = init_scorenet(20, 1, 8, 1)
        net1.evaluate(np.zeros((5, 1)), 0.5, CFG.horizon)
        assert calls == []
        net1.evaluate(np.zeros((5, 1)), np.full(5, 0.5), CFG.horizon)
        net2 = init_scorenet(20, 2, 8, 1)
        net2.evaluate(np.zeros((5, 2)), 0.5, CFG.horizon)
        assert len(calls) == 2


class TestDsmLoss:
    def test_zero_net_matches_closed_form(self):
        data = Gauss1D(0, 1).sample(2000, 5)
        net = init_scorenet(50, 1, 8, 42)
        loss = dsm_loss(net, data, CFG, t_batch=200_000, seed=9)
        assert loss == pytest.approx(mean_conditional_target_sq(CFG), abs=0.05)

    def test_analytic_score_attains_minimum(self):
        # the stationary marginal score leaves only the conditional variance
        data = Gauss1D(0, 1).sample(4000, 5)
        loss = dsm_loss(gauss_score_model(0, 1), data, CFG, t_batch=200_000, seed=13)
        assert loss == pytest.approx(mean_conditional_target_sq(CFG) - 1.0, abs=0.05)

    def test_deterministic_in_seed(self):
        data = Gauss1D(0, 1).sample(500, 5)
        net = init_scorenet(20, 1, 8, 1)
        assert dsm_loss(net, data, CFG, 1000, 3) == dsm_loss(net, data, CFG, 1000, 3)

    def test_empty_data_rejected(self):
        net = init_scorenet(20, 1, 8, 1)
        with pytest.raises(ValueError):
            dsm_loss(net, Gauss1D(0, 1).sample(0, 1), CFG, 10, 0)


class TestTrain:
    def test_losses_monotone_under_safe_lr(self):
        data = Gauss1D(0, 1).sample(800, 3)
        net = init_scorenet(800, 1, 8, 4)
        report = train(net, data, CFG, seed=5)
        assert report.steps_run == math.ceil(math.sqrt(800))
        diffs = np.diff(report.losses)
        assert (diffs <= 1e-12).all()

    def test_power_iteration_oracle_gives_monotone_descent(self):
        data = Gauss1D(0, 1).sample(400, 7)
        net = init_scorenet(400, 1, 8, 8)
        rng = np.random.default_rng(11)
        t = rng.uniform(CFG.t_min, CFG.horizon, size=400)
        phi = net.features(data.points, t, CFG.horizon)
        top = hessian_top_eigenvalue(phi, net.width)
        assert top > 0
        report = train(net, data, CFG, lr=1.0 / top, tau_steps=40, seed=11)
        assert (np.diff(report.losses) <= 1e-12).all()

    @pytest.mark.parametrize("d", [1, 2])
    def test_losses_are_losses_of_the_stopped_weights(self, d):
        # losses[k] is the loss of the weights a budget of k steps leaves
        data = SampleSet(np.random.default_rng(3).standard_normal((120, d)), 3)
        report = train(init_scorenet(60, d, 8, 4), data, CFG, tau_steps=5, seed=5)
        rng = np.random.default_rng(5)
        t = rng.uniform(CFG.t_min, CFG.horizon, size=data.n)
        xt, target = diffusion._ou_forward(data.points, t, rng)
        for k in (0, 1, 5):
            net = init_scorenet(60, d, 8, 4)
            train(net, data, CFG, tau_steps=k, seed=5)
            phi = net.features(xt, t, CFG.horizon)
            pred = np.einsum("nm,dm->nd", phi, net.out_weights) / net.width
            assert report.losses[k] == float(((pred - target) ** 2).sum(axis=1).mean())

    def test_zero_steps_is_identity(self):
        data = Gauss1D(0, 1).sample(100, 3)
        net = init_scorenet(100, 1, 8, 4)
        before = net.out_weights.copy()
        report = train(net, data, CFG, tau_steps=0, seed=5)
        assert np.array_equal(net.out_weights, before)
        assert report.steps_run == 0

    def test_hidden_layers_untouched(self):
        data = Gauss1D(0, 1).sample(300, 3)
        net = init_scorenet(300, 1, 8, 4)
        w_before = net.in_weights.copy()
        u_before = net.time_weights.copy()
        train(net, data, CFG, seed=5)
        assert np.array_equal(net.in_weights, w_before)
        assert np.array_equal(net.time_weights, u_before)

    def test_divergence_detected(self):
        data = Gauss1D(0, 1).sample(200, 3)
        net = init_scorenet(200, 1, 8, 4)
        with pytest.raises(TrainingDivergence):
            train(net, data, CFG, lr=1e18, tau_steps=50, seed=5)

    def test_rkhs_norm_grows_at_most_sqrt_tau(self):
        # same seed: longer budgets extend one frozen-design trajectory
        data = Gauss1D(0, 1).sample(1000, 8)
        taus = [4, 16, 36, 64, 100]
        ratios = []
        for tau in taus:
            net = init_scorenet(1000, 1, 8, 21)
            report = train(net, data, CFG, tau_steps=tau, seed=77)
            ratios.append(math.sqrt(report.rkhs_norm) / math.sqrt(tau))
        # sublinear trend: the sqrt-tau-normalized norm must not grow
        assert all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))

    def test_deterministic(self):
        data = Gauss1D(0, 1).sample(200, 3)
        nets = []
        for _ in range(2):
            net = init_scorenet(200, 1, 8, 4)
            train(net, data, CFG, tau_steps=10, seed=5)
            nets.append(net.out_weights.copy())
        assert np.array_equal(nets[0], nets[1])

    @pytest.mark.parametrize("d", [1, 2])
    def test_features_match_matrix_products(self, d):
        net = init_scorenet(90, d, 8, 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((70, d))
        for t in (0.7, rng.uniform(CFG.t_min, CFG.horizon, size=70)):
            e = embed_time(t, 8, CFG.horizon)
            dense = np.maximum(x @ net.in_weights.T + e @ net.time_weights.T, 0.0)
            np.testing.assert_allclose(net.features(x, t, CFG.horizon), dense, rtol=0, atol=1e-12)

    def test_descent_matches_matrix_product_form(self):
        # the same frozen design and step rule, written with @
        n, m, tau = 150, 120, 12
        data = Gauss1D(0, 1).sample(n, 3)
        net = init_scorenet(m, 1, 8, 4)
        report = train(net, data, CFG, tau_steps=tau, seed=5)
        rng = np.random.default_rng(5)
        t = rng.uniform(CFG.t_min, CFG.horizon, size=n)
        xt, target = diffusion._ou_forward(data.points, t, rng)
        e = embed_time(t, 8, CFG.horizon)
        phi = np.maximum(xt @ net.in_weights.T + e @ net.time_weights.T, 0.0)
        a = np.zeros((1, m))
        for _ in range(tau):
            a -= report.lr * ((phi @ a.T / m - target).T @ phi) * (2.0 / (n * m))
        assert np.abs(a).max() > 0
        np.testing.assert_allclose(net.out_weights, a, rtol=1e-10, atol=1e-14)
        loss = float(((phi @ a.T / m - target) ** 2).sum(axis=1).mean())
        assert report.losses[-1] == pytest.approx(loss, rel=1e-10)


class TestSampleQuality:
    def test_trained_score_beats_null_baseline(self):
        from sclab.divergences import tv_histogram

        cfg = DiffusionConfig(reverse_steps=80)
        target = Gauss1D(0, 1)
        data = target.sample(400, 6)
        trained = init_scorenet(400, 1, 8, 5)
        train(trained, data, cfg, seed=7)
        null = init_scorenet(400, 1, 8, 5)
        fresh = target.sample(4000, 999)
        tv_trained = tv_histogram(reverse_sample(trained, cfg, 4000, 1234), fresh)
        tv_null = tv_histogram(reverse_sample(null, cfg, 4000, 1234), fresh)
        assert tv_trained.value < tv_null.value


class TestAnalyticScore:
    def test_stationary_is_negative_identity(self):
        for t in (0.0, 0.5, 3.0, 50.0):
            assert analytic_score_gauss(0, 1, t, 2.0) == pytest.approx(-2.0)

    def test_long_time_limit_is_prior_score(self):
        assert analytic_score_gauss(3.0, 0.5, 60.0, 1.7) == pytest.approx(-1.7, abs=1e-9)

    def test_mean_decay(self):
        t = math.log(4.0)
        v = analytic_score_gauss(1.0, 1.0, t, 0.5)
        assert v == pytest.approx(0.0, abs=1e-12)  # x equals the decayed mean 0.5


def single_time_table(net, t: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted kinks and (2, K + 1) slope/intercept table at one time, built as
    the sampler built them once per step before the tables were shared across steps."""
    a = net.out_weights[0]
    w = net.in_weights[:, 0]
    b = net.time_weights @ embed_time(t, net.embed_dim, horizon)[0]
    flat = w == 0.0
    a_k, w_k, b_k = a[~flat], w[~flat], b[~flat]
    kinks = -b_k / w_k
    order = np.argsort(kinks)
    right = (w_k > 0.0)[order]
    terms = np.stack([a_k * w_k, a_k * b_k])[:, order]
    table = np.zeros((2, kinks.size + 1))
    np.cumsum(np.where(right, terms, 0.0), axis=1, out=table[:, 1:])
    table[:, :-1] += np.cumsum(np.where(right, 0.0, terms)[:, ::-1], axis=1)[:, ::-1]
    table[1] += a[flat] @ np.maximum(b[flat], 0.0)
    return kinks[order], table


def single_time_score_1d(net, x: np.ndarray, t: float, horizon: float) -> np.ndarray:
    """Exact 1-d score at one time from ``single_time_table``, shape (q,)."""
    kinks, table = single_time_table(net, t, horizon)
    idx = np.searchsorted(kinks, x)
    return (table[0, idx] * x + table[1, idx]) / net.width


def per_step_oracle(net, cfg: DiffusionConfig, n: int, seed: int):
    """The reverse chain with one single-time score build per step; returns the final
    state, or the step at which the state first went non-finite."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(cfg.horizon, cfg.t_min, cfg.reverse_steps + 1)
    dt = (cfg.horizon - cfg.t_min) / cfg.reverse_steps
    x = rng.standard_normal((n, 1))
    for k in range(cfg.reverse_steps):
        s = single_time_score_1d(net, x[:, 0], ts[k], cfg.horizon)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + (0.5 * x + s) * dt + math.sqrt(dt) * rng.standard_normal((n, 1))
        if not np.isfinite(x).all():
            return k + 1
    return x


@pytest.fixture(scope="module")
def trained_nets():
    """Trained 1-d nets: plain, and one whose every fourth unit is flat (w_j = 0)."""
    plain = init_scorenet(200, 1, 8, 4)
    train(plain, Gauss1D(0.5, 0.8).sample(200, 3), CFG, seed=5)
    flat = init_scorenet(40, 1, 4, 6)
    flat.in_weights[::4] = 0.0
    train(flat, Gauss1D(-1.0, 1.5).sample(64, 7), CFG, seed=8)
    return {"plain": plain, "flat": flat}


def count_tables(monkeypatch) -> list:
    """Record the number of times of each ``ScoreNet.tables_1d`` call."""
    rows = []
    tables_1d = ScoreNet.tables_1d
    monkeypatch.setattr(
        ScoreNet,
        "tables_1d",
        lambda self, ts, horizon: rows.append(len(ts)) or tables_1d(self, ts, horizon),
    )
    return rows


class TestReverseSample:
    @pytest.mark.parametrize("kind", ["plain", "flat"])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_tabled_matches_per_step_build(self, trained_nets, kind, n):
        net = trained_nets[kind]
        cfg = DiffusionConfig(reverse_steps=101)
        assert cfg.reverse_steps % (diffusion._TABLE_CELLS // (net.width + 1))
        got = reverse_sample(net, cfg, n, 11).points
        assert got.shape == (n, 1)
        assert np.array_equal(got, per_step_oracle(net, cfg, n, 11))

    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_many_blocks_match_per_step_build(self, trained_nets, monkeypatch, kind):
        net = trained_nets[kind]
        monkeypatch.setattr(diffusion, "_TABLE_CELLS", 3 * (net.width + 1) + 2)
        rows = count_tables(monkeypatch)
        cfg = DiffusionConfig(reverse_steps=100)
        got = reverse_sample(net, cfg, 7, 12).points
        assert rows == [3] * 33 + [1]
        assert np.array_equal(got, per_step_oracle(net, cfg, 7, 12))

    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_tables_over_many_times_match_one_time_builds(self, trained_nets, kind):
        net = trained_nets[kind]
        ts = np.linspace(CFG.horizon, CFG.t_min, 77)
        kinks, table = net.tables_1d(ts, CFG.horizon)
        assert table.shape == (2, ts.size, kinks.shape[1] + 1)
        for r, t in enumerate(ts):
            one_kinks, one_table = net.tables_1d([t], CFG.horizon)
            assert np.array_equal(kinks[r], one_kinks[0])
            assert np.array_equal(table[:, r], one_table[:, 0])

    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_tables_match_single_time_build(self, trained_nets, kind):
        net = trained_nets[kind]
        ts = np.linspace(CFG.horizon, CFG.t_min, 9)
        x = np.concatenate([np.linspace(-6.0, 6.0, 301), [0.0, -0.0]])
        tables = net.tables_1d(ts, CFG.horizon)
        for r, t in enumerate(ts):
            want = single_time_score_1d(net, x, t, CFG.horizon)
            assert np.array_equal(net.lookup_1d(tables, r, x), want)
            assert np.array_equal(net.evaluate(x[:, None], t, CFG.horizon)[:, 0], want)

    @pytest.mark.parametrize("kind", ["plain", "flat", "signed_zero"])
    def test_tables_bit_equal_single_time_tables(self, trained_nets, kind):
        # bytes, not values: the sign of every zero intercept is kept; in the
        # untrained one-unit net a_j b_j = 0 * b_j is -0.0 while b_j < 0
        zero = ScoreNet(np.zeros((1, 1)), np.ones((1, 1)), -np.eye(1, 8))
        net = trained_nets.get(kind, zero)
        ts = np.linspace(CFG.horizon, CFG.t_min, 9)
        kinks, table = net.tables_1d(ts, CFG.horizon)
        for r, t in enumerate(ts):
            one_kinks, one_table = single_time_table(net, t, CFG.horizon)
            assert kinks[r].tobytes() == one_kinks.tobytes()
            assert table[:, r].tobytes() == one_table.tobytes()

    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_sorted_key_lookup_matches_plain_search(self, trained_nets, kind):
        net = trained_nets[kind]
        ts = np.linspace(CFG.horizon, CFG.t_min, 9)
        tables = net.tables_1d(ts, CFG.horizon)
        kinks, table = tables
        rng = np.random.default_rng(2)
        for r in range(ts.size):
            # every kink exactly, twice, among fresh points and signed zeros
            x = np.concatenate(
                [kinks[r], kinks[r], 3.0 * rng.standard_normal(500), [0.0, -0.0] * 3]
            )
            rng.shuffle(x)
            idx = np.searchsorted(kinks[r], x)
            want = (table[0, r, idx] * x + table[1, r, idx]) / net.width
            assert net.lookup_1d(tables, r, x).tobytes() == want.tobytes()

    def test_lookup_on_tied_kinks_and_non_finite_points(self):
        # units 1 and 2 scale unit 0's weights by 2 and -1, so the three share
        # one kink bit for bit; unit 3 has no bias, so its kink is a zero
        net = init_scorenet(12, 1, 8, 9)
        for j, c in [(1, 2.0), (2, -1.0)]:
            net.in_weights[j], net.time_weights[j] = c * net.in_weights[0], c * net.time_weights[0]
        net.time_weights[3] = 0.0
        net.out_weights[0] = np.random.default_rng(3).standard_normal(12)
        ts = np.linspace(CFG.horizon, CFG.t_min, 5)
        tables = net.tables_1d(ts, CFG.horizon)
        kinks, table = tables
        rng = np.random.default_rng(4)
        for r in range(ts.size):
            assert (np.diff(kinks[r]) == 0.0).sum() == 2 and 0.0 in kinks[r]
            special = [0.0, -0.0, np.inf, -np.inf, np.nan] * 3
            x = np.concatenate([kinks[r], kinks[r], special, rng.standard_normal(100)])
            rng.shuffle(x)
            with np.errstate(invalid="ignore"):  # a zero slope times an infinity
                idx = np.searchsorted(kinks[r], x)
                want = (table[0, r, idx] * x + table[1, r, idx]) / net.width
                got = net.lookup_1d(tables, r, x)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    def test_tabled_blow_up_names_oracle_step(self, monkeypatch, scale):
        net = init_scorenet(40, 1, 8, 4)
        net.out_weights[...] = scale
        monkeypatch.setattr(diffusion, "_TABLE_CELLS", 3 * (net.width + 1))
        cfg = DiffusionConfig(reverse_steps=100)
        with np.errstate(over="ignore", invalid="ignore"):
            step = per_step_oracle(net, cfg, 7, 3)
            assert isinstance(step, int)
            with pytest.raises(RuntimeError, match=rf"non-finite state at reverse step {step} "):
                reverse_sample(net, cfg, 7, 3)

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    @pytest.mark.parametrize("noise_cells", [None, 4 * 7, 5], ids=["default", "rows4", "below_n"])
    def test_blow_up_inside_default_block_names_oracle_step(self, monkeypatch, scale, noise_cells):
        # at m = 256 the tables come in the default 63-step blocks; a noise
        # cap of 28 cells checks 7 chains every 4 steps, one below 7 every step
        net = init_scorenet(256, 1, 8, 4)
        net.out_weights[...] = scale
        if noise_cells is not None:
            monkeypatch.setattr(diffusion, "_NOISE_CELLS", noise_cells)
        block = diffusion._TABLE_CELLS // (net.width + 1)
        rows = max(1, min(block, diffusion._NOISE_CELLS // 7))
        assert block == 63 and rows == {None: 63, 28: 4, 5: 1}[noise_cells]
        cfg = DiffusionConfig(reverse_steps=100)
        with np.errstate(over="ignore", invalid="ignore"):
            step = per_step_oracle(net, cfg, 7, 3)
            assert isinstance(step, int)
            with pytest.raises(RuntimeError, match=rf"non-finite state at reverse step {step} "):
                reverse_sample(net, cfg, 7, 3)
        assert rows == 1 or inside_a_block(step, rows, block, cfg.reverse_steps)

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    def test_blow_up_warns_as_per_step_form(self, scale):
        # huge finite states overflow the score before the state overflows; a
        # block whose arithmetic raises under errstate(all="raise") is replayed
        # under the caller's error settings, so the same warnings come out,
        # and none from scoring non-finite states
        net = init_scorenet(256, 1, 8, 4)
        net.out_weights[...] = scale
        cfg = DiffusionConfig(reverse_steps=100)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            step = per_step_oracle(net, cfg, 7, 3)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match=rf"non-finite state at reverse step {step} "):
                reverse_sample(net, cfg, 7, 3)
        assert want and [str(w.message) for w in got] == [str(w.message) for w in want]

    def test_moments_with_analytic_score(self):
        s = reverse_sample(gauss_score_model(0, 1), CFG, 10**4, 3)
        assert abs(s.points.mean()) < 0.03
        assert abs(s.points.var() - 1.0) < 0.05

    def test_zero_score_matches_moment_recursion(self):
        class ZeroScore:
            dim = 1

            def evaluate(self, x, t, horizon):
                return np.zeros_like(np.atleast_2d(x))

        cfg = DiffusionConfig(reverse_steps=400)
        s = reverse_sample(ZeroScore(), cfg, 40_000, 3)
        # drift-only reverse flow: exact discrete second-moment recursion
        dt = (cfg.horizon - cfg.t_min) / cfg.reverse_steps
        v = 1.0
        for _ in range(cfg.reverse_steps):
            v = v * (1.0 + 0.5 * dt) ** 2 + dt
        assert s.points.var() == pytest.approx(v, rel=0.05)
        # and the continuous moment ODE limit 2 exp(span) - 1 is nearby
        assert v == pytest.approx(2 * math.exp(cfg.horizon - cfg.t_min) - 1, rel=0.02)

    def test_deterministic(self):
        a = reverse_sample(gauss_score_model(0, 1), CFG, 500, 9)
        b = reverse_sample(gauss_score_model(0, 1), CFG, 500, 9)
        assert np.array_equal(a.points, b.points)

    def test_nonfinite_state_names_step(self):
        class ExplodingScore:
            dim = 1

            def evaluate(self, x, t, horizon):
                return np.full_like(np.atleast_2d(x), 1e308)

        with pytest.raises(RuntimeError, match="reverse step 1"):
            reverse_sample(ExplodingScore(), CFG, 10, 0)


def inside_a_block(step: int, rows: int, block: int, steps: int) -> bool:
    """Whether 1-based ``step`` is neither the first nor the last step of its
    noise block, when ``steps`` steps run in table blocks of ``block`` steps
    cut into noise blocks of ``rows``."""
    k = step - 1
    k0 = k - k % block
    j0 = k0 + (k - k0) // rows * rows
    return j0 < k < min(j0 + rows, k0 + block, steps) - 1


MANY = [(0, 5), (1, 11), (7, 12), (300, 13), (7, 12), (1, 14)]


def lone_blow_ups(score, cfg: DiffusionConfig, requests) -> tuple[dict, int]:
    """The error text of each ``requests`` entry whose lone ``reverse_sample``
    blows up, keyed by the step it names, and the count of nonempty requests
    that do not blow up alone."""
    errors, survivors = {}, 0
    for n, seed in requests:
        try:
            reverse_sample(score, cfg, n, seed)
        except RuntimeError as exc:
            step = re.match(r"non-finite state at reverse step (\d+) ", str(exc)).group(1)
            errors[int(step)] = str(exc)
        else:
            survivors += n > 0
    return errors, survivors


def one_unit_net(scale: float) -> ScoreNet:
    """A one-unit net active right of 0: a chain above 0 grows by 1 + scale*dt a
    step and blows up, one below it only drifts, so chains blow up at different
    steps or not at all."""
    return ScoreNet(np.array([[scale]]), np.array([[1.0]]), np.zeros((1, 8)))


class TestReverseSampleMany:
    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_one_pass_matches_lone_calls(self, trained_nets, monkeypatch, kind):
        net = trained_nets[kind]
        rows = count_tables(monkeypatch)
        cfg = DiffusionConfig(reverse_steps=101)
        got = reverse_sample_many(net, cfg, MANY)
        block = diffusion._TABLE_CELLS // (net.width + 1)
        assert len(rows) == -(-cfg.reverse_steps // block)  # one pass for all requests
        assert len(got) == len(MANY)
        for (n, seed), res in zip(MANY, got):
            assert res.seed == seed and res.points.shape == (n, 1)
            assert np.array_equal(res.points, reverse_sample(net, cfg, n, seed).points)
            assert np.array_equal(res.points, per_step_oracle(net, cfg, n, seed))

    @pytest.mark.parametrize("kind", ["plain", "flat"])
    def test_blocks_and_passes_under_tiny_caps(self, trained_nets, monkeypatch, kind):
        net = trained_nets[kind]
        monkeypatch.setattr(diffusion, "_TABLE_CELLS", 3 * (net.width + 1) + 2)
        monkeypatch.setattr(diffusion, "_PASS_POINTS", 8)
        rows = count_tables(monkeypatch)
        cfg = DiffusionConfig(reverse_steps=100)
        got = reverse_sample_many(net, cfg, MANY)
        # passes of (0, 1, 7), (300) alone and (7, 1) points, each in 34 blocks
        assert rows == ([3] * 33 + [1]) * 3
        for (n, seed), res in zip(MANY, got):
            assert np.array_equal(res.points, per_step_oracle(net, cfg, n, seed))

    def test_empty_requests_build_no_tables(self, trained_nets, monkeypatch):
        rows = count_tables(monkeypatch)
        got = reverse_sample_many(trained_nets["plain"], CFG, [(0, 1), (0, 2)])
        assert rows == []
        assert [(r.points.shape, r.seed) for r in got] == [((0, 1), 1), ((0, 1), 2)]

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    def test_blow_up_names_earliest_step(self, scale):
        net = one_unit_net(scale)
        cfg = DiffusionConfig(reverse_steps=100)
        requests = [(n, seed) for seed in range(10) for n in (1, 2)] + [(0, 3)]
        with np.errstate(over="ignore", invalid="ignore"):
            errors, survivors = lone_blow_ups(net, cfg, requests)
            with pytest.raises(RuntimeError) as info:
                reverse_sample_many(net, cfg, requests)
        assert len(errors) >= 2  # lone requests blow up at different steps
        assert survivors >= 3  # and some not at all
        assert str(info.value) == errors[min(errors)]

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    @pytest.mark.parametrize("noise_cells", [None, 7 * 30, 1], ids=["default", "rows7", "below_n"])
    def test_blow_up_inside_a_63_step_block(self, monkeypatch, scale, noise_cells):
        # the one-unit net's tables in 63-step blocks, as at m = 256; the 30
        # chains are checked every 63, every 7 or (a cap below a request's 2
        # chains) every step
        net = one_unit_net(scale)
        monkeypatch.setattr(diffusion, "_TABLE_CELLS", 63 * (net.width + 1))
        if noise_cells is not None:
            monkeypatch.setattr(diffusion, "_NOISE_CELLS", noise_cells)
        cfg = DiffusionConfig(reverse_steps=100)
        requests = [(n, seed) for seed in range(10) for n in (1, 2)] + [(0, 3)]
        rows = max(1, min(63, diffusion._NOISE_CELLS // 30))
        assert rows == {None: 63, 210: 7, 1: 1}[noise_cells]
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = [per_step_oracle(net, cfg, n, seed) for n, seed in requests]
            errors, survivors = lone_blow_ups(net, cfg, requests)
            with pytest.raises(RuntimeError) as info:
                reverse_sample_many(net, cfg, requests)
        steps = {want for want in oracle if isinstance(want, int)}
        assert set(errors) == steps and len(steps) >= 2 and survivors >= 3
        assert str(info.value) == errors[min(steps)]
        assert rows == 1 or inside_a_block(min(steps), rows, 63, cfg.reverse_steps)

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    def test_serve_raises_and_pools_nothing(self, scale):
        model = DiffusionModel(one_unit_net(scale), DiffusionConfig(reverse_steps=100))
        requests = [(2, diffusion.draw_seed(np.random.default_rng(i))) for i in range(10)]
        with np.errstate(over="ignore", invalid="ignore"):
            errors, survivors = lone_blow_ups(model.net, model.cfg, requests)
            with pytest.raises(RuntimeError) as info:
                model.serve(requests)
        assert errors and survivors
        assert str(info.value) == errors[min(errors)]
        assert model.pool == {}


def evaluate_step_oracle(score, cfg: DiffusionConfig, n: int, seed: int):
    """The reverse chain with one ``evaluate`` per step on the whole state, as the
    sampler ran every score but a 1-d ``ScoreNet`` before the one pass; returns
    the final state, or the step at which the state first went non-finite."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(cfg.horizon, cfg.t_min, cfg.reverse_steps + 1)
    dt = (cfg.horizon - cfg.t_min) / cfg.reverse_steps
    x = rng.standard_normal((n, score.dim))
    for k in range(cfg.reverse_steps):
        s = score.evaluate(x, ts[k], cfg.horizon)
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + (0.5 * x + s) * dt + math.sqrt(dt) * rng.standard_normal((n, score.dim))
        if not np.isfinite(x).all():
            return k + 1
    return x


@pytest.fixture(scope="module")
def evaluated_scores():
    """Scores the sampler evaluates per request: trained dense nets (d = 2 and
    d = 3) and the analytic Gaussian score."""
    nets = {}
    for d, width, seed in [(2, 120, 21), (3, 40, 22)]:
        rng = np.random.default_rng(seed)
        data = SampleSet(0.8 * rng.standard_normal((120, d)) + 0.3, seed)
        nets[f"dense{d}"] = init_scorenet(width, d, 8, seed)
        train(nets[f"dense{d}"], data, CFG, seed=seed + 1)
    return {**nets, "analytic": gauss_score_model(0.5, 0.8)}


def one_unit_net_2d(scale: float) -> ScoreNet:
    """A dense 2-d ``one_unit_net``: its one unit reads the first coordinate and
    drives both, so chains blow up at different steps or not at all."""
    return ScoreNet(np.full((2, 1), scale), np.array([[1.0, 0.0]]), np.zeros((1, 8)))


class TestEvaluatedPass:
    @pytest.mark.parametrize("kind", ["dense2", "dense3", "analytic"])
    def test_draws_match_per_step_evaluate(self, evaluated_scores, kind):
        score = evaluated_scores[kind]
        cfg = DiffusionConfig(reverse_steps=40)
        many = reverse_sample_many(score, cfg, MANY)
        for (n, seed), res in zip(MANY, many, strict=True):
            want = evaluate_step_oracle(score, cfg, n, seed)
            assert want.shape == (n, score.dim)
            assert res.seed == seed and res.points.tobytes() == want.tobytes()
            assert reverse_sample(score, cfg, n, seed).points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e6, 1e20])
    def test_dense_blow_ups_name_oracle_steps(self, scale):
        net = one_unit_net_2d(scale)
        cfg = DiffusionConfig(reverse_steps=100)
        requests = [(n, seed) for seed in range(20) for n in (1, 2)] + [(0, 3)]
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = [evaluate_step_oracle(net, cfg, n, seed) for n, seed in requests]
            errors, survivors = lone_blow_ups(net, cfg, requests)
            with pytest.raises(RuntimeError) as info:
                reverse_sample_many(net, cfg, requests)
        steps = {want for want in oracle if isinstance(want, int)}
        assert set(errors) == steps and len(steps) >= 2  # lone calls blow up at different steps
        assert survivors >= 3
        assert str(info.value).startswith(f"non-finite state at reverse step {min(steps)} ")
        assert str(info.value) == errors[min(steps)]

    def test_score_refusing_non_finite_points_gets_the_step_error(self):
        # a score that refuses non-finite points fails the block's unchecked
        # run; the replay, checked after every step, names the blow-up before
        # the score is asked about a non-finite point, as the per-step form did
        net = one_unit_net_2d(1e20)

        class Guarded:
            dim = 2

            def evaluate(self, x, t, horizon):
                if not np.isfinite(x).all():
                    raise ValueError("non-finite point scored")
                return net.evaluate(x, t, horizon)

        cfg = DiffusionConfig(reverse_steps=100)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = [evaluate_step_oracle(net, cfg, 2, seed) for seed in range(10)]
            step = min(s for s in steps if isinstance(s, int))
            with pytest.raises(RuntimeError, match=rf"non-finite state at reverse step {step} "):
                reverse_sample_many(Guarded(), cfg, [(2, seed) for seed in range(10)])

    def test_exploding_score_error_matches_lone_call(self):
        class ExplodingScore:
            dim = 1

            def evaluate(self, x, t, horizon):
                return np.full_like(np.atleast_2d(x), 1e308)

        cfg = DiffusionConfig(reverse_steps=40)
        with pytest.raises(RuntimeError) as lone:
            reverse_sample(ExplodingScore(), cfg, 10, 0)
        with pytest.raises(RuntimeError) as many:
            reverse_sample_many(ExplodingScore(), cfg, [(10, 0), (3, 1)])
        assert str(many.value) == str(lone.value)


class TestDiffusionModelPool:
    def test_draw_pops_served_and_falls_back(self, trained_nets, monkeypatch):
        model = DiffusionModel(trained_nets["plain"], DiffusionConfig(reverse_steps=40))
        seed = diffusion.draw_seed(np.random.default_rng(4))
        model.serve([(5, seed), (5, seed), (3, 9)])
        assert model == DiffusionModel(model.net, model.cfg)  # the pool is not compared
        assert list(model.pool) == [(5, seed), (3, 9)]  # one draw per key
        assert all(isinstance(served, SampleSet) for served in model.pool.values())
        lone = []
        sample = diffusion.reverse_sample
        monkeypatch.setattr(
            diffusion, "reverse_sample", lambda *a: lone.append(a[2:]) or sample(*a)
        )
        want = sample(model.net, model.cfg, 5, seed).points
        for fallbacks in ([], [(5, seed)]):  # the served draw, then a fresh one
            assert model.draw(5, np.random.default_rng(4)).tobytes() == want.tobytes()
            assert lone == fallbacks
        assert list(model.pool) == [(3, 9)]
        assert np.array_equal(model.sample(3, 9).points, sample(model.net, model.cfg, 3, 9).points)
        assert model.pool == {}


class TestPriorKL:
    def test_stationary_zero(self):
        assert prior_kl_gauss(0, 1, CFG) == 0.0

    def test_short_horizon_limit(self):
        cfg = DiffusionConfig(horizon=1e-9, t_min=1e-12)
        assert prior_kl_gauss(1, 1, cfg) == pytest.approx(0.5, abs=1e-6)

    def test_exponential_decay_log_linear(self):
        horizons = [1.0, 2.0, 4.0, 8.0]
        kls = [prior_kl_gauss(1.0, 1.3, DiffusionConfig(horizon=T)) for T in horizons]
        assert all(b < a for a, b in zip(kls, kls[1:]))
        slope, intercept = np.polyfit(horizons, np.log(kls), 1)
        fitted = np.polyval((slope, intercept), horizons)
        ss_res = np.sum((np.log(kls) - fitted) ** 2)
        ss_tot = np.sum((np.log(kls) - np.mean(np.log(kls))) ** 2)
        assert 1 - ss_res / ss_tot > 0.99
        assert slope == pytest.approx(-1.0, abs=0.1)
