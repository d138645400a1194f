"""Desk-scale score-based diffusion generator.

The forward process is the unit-rate Ornstein-Uhlenbeck SDE
dx = -x/2 dt + dw (stationary law N(0, I)), which gives closed-form
conditionals, analytic scores for Gaussian data, and a closed-form prior
mismatch for validation. The score is a one-hidden-layer random-feature
network: only the output weights train, so the denoising objective is
quadratic and full-batch gradient descent is a convex solve.

The activations and the training products are contracted with ``einsum``,
not ``@``: at these sizes a threaded BLAS splits each product over its worker
pool, and the workers keep spinning for about 0.1 s after the last call,
taking CPU from the single-threaded reverse sampler that follows training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SampleSet


class TrainingDivergence(RuntimeError):
    """Raised when the descent loss blows past its starting value."""


@dataclass(frozen=True)
class DiffusionConfig:
    horizon: float = 3.0  # forward-integration time T
    reverse_steps: int = 500
    embed_dim: int = 8  # sinusoidal time features, must be even
    t_min: float = 1e-3  # truncation at both ends; conditional variance
    # vanishes at t = 0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.reverse_steps < 10:
            raise ValueError("reverse_steps must be >= 10")
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise ValueError("embed_dim must be a positive even number")
        if not 0 < self.t_min < self.horizon:
            raise ValueError("t_min must lie in (0, horizon)")


def embed_time(t, embed_dim: int, horizon: float) -> np.ndarray:
    """Sinusoidal time features: (sin, cos) pairs at frequencies k = 1..embed_dim/2."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.arange(1, embed_dim // 2 + 1)
    phase = 2.0 * math.pi * np.outer(t, k) / horizon
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1)


# cap on the hidden-activation block (points x width) built per dense evaluation pass
_CHUNK_CELLS = 4_000_000
# cap on the 1-d score table cells (steps x (width + 1)) a reverse pass builds at once
_TABLE_CELLS = 16_384
# cap on the noise cells (steps x chains x d) a reverse pass draws ahead at once:
# 96 KB; a 128 KB block raised the benchmark's peak RSS by 0.1-0.25 MB
_NOISE_CELLS = 12_288
# cap on the chains one lockstep reverse pass advances together (a larger request runs
# alone). A pass's per-step arrays grow with its chains: one model's draw plan at
# eval_samples = 100000 (208,610 chains, width 256, 500 steps) took 5.3-6.2 s at 46 MB
# peak RSS under this cap and 7.0-7.9 s at 54 MB as one pass, with identical draws
_PASS_POINTS = 16_384


@dataclass
class ScoreNet:
    """Random-feature score network; only ``out_weights`` changes during training."""

    out_weights: np.ndarray  # (d, m), trainable
    in_weights: np.ndarray  # (m, d), fixed at init
    time_weights: np.ndarray  # (m, embed_dim), fixed at init

    @property
    def width(self) -> int:
        return self.in_weights.shape[0]

    @property
    def dim(self) -> int:
        return self.in_weights.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.time_weights.shape[1]

    def features(self, x: np.ndarray, t, horizon: float) -> np.ndarray:
        """Hidden-layer activations, shape (q, m).

        ``t`` is a scalar (shared time, broadcast over the batch) or one
        time per point.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        e = embed_time(t, self.embed_dim, horizon)
        z = np.einsum("qd,md->qm", x, self.in_weights)
        z += np.einsum("qe,me->qm", e, self.time_weights)
        return np.maximum(z, 0.0)

    def evaluate(self, x: np.ndarray, t, horizon: float) -> np.ndarray:
        """Score estimate at points ``x`` and time(s) ``t``, shape (q, d).

        In one dimension at a shared time the score is piecewise linear in x
        and is evaluated exactly from a one-row ``tables_1d``; every other
        call forms the hidden activations in row blocks of at most
        ``_CHUNK_CELLS`` cells.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.dim == 1 and x.shape[1] == 1 and np.ndim(t) == 0:
            return self.lookup_1d(self.tables_1d([t], horizon), 0, x[:, 0])[:, None]
        t = np.asarray(t, dtype=float)
        out = np.empty((x.shape[0], self.dim))
        step = max(1, _CHUNK_CELLS // self.width)
        for i0 in range(0, x.shape[0], step):
            rows = slice(i0, i0 + step)
            phi = self.features(x[rows], t if t.size == 1 else t[rows], horizon)
            out[rows] = phi @ self.out_weights.T / self.width
        return out

    def tables_1d(self, ts, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact d = 1 score tables at each time in ``ts``, in O(len(ts) m log m).

        s(x) = (1/m) sum_j a_j relu(w_j x + b_j) has its kinks at -b_j / w_j.
        A unit with w_j > 0 is active right of its kink, so it enters a
        prefix sum over the sorted kinks; one with w_j < 0 is active left of
        it and enters a suffix sum; one with w_j = 0 adds a_j relu(b_j)
        everywhere. Returns the sorted kinks, shape (len(ts), K), and
        ``table`` of shape (2, len(ts), K + 1), where ``table[:, r, i]`` is
        the active (slope, intercept) at time ``ts[r]`` between kinks i-1
        and i. Row r is bit-identical to a one-row call at ``ts[r]``.
        """
        a = self.out_weights[0]
        w = self.in_weights[:, 0]
        # one matvec per time: the matrix product E @ time_weights.T rounds differently
        e = embed_time(ts, self.embed_dim, horizon)
        b = np.stack([self.time_weights @ e_r for e_r in e])
        flat = w == 0.0
        has_flat = flat.any()
        a_k, w_k, b_k = a, w, b
        if has_flat:
            # compress keeps rows contiguous; b[:, mask] is column-major and a dot
            # over its strided rows rounds differently
            a_k, w_k, b_k = a[~flat], w[~flat], np.compress(~flat, b, axis=1)
        kinks = -b_k / w_k
        order = np.argsort(kinks, axis=1)
        right = (w_k > 0.0)[order]
        terms = np.stack([(a_k * w_k)[order], np.take_along_axis(a_k * b_k, order, axis=1)])
        rows, k = kinks.shape
        table = np.zeros((2, rows, k + 1))
        np.cumsum(np.where(right, terms, 0.0), axis=2, out=table[:, :, 1:])
        suffix = np.cumsum(np.where(right, 0.0, terms)[:, :, ::-1], axis=2)
        table[:, :, :-1] += suffix[:, :, ::-1]
        if has_flat:
            a_0, relu_0 = a[flat], np.maximum(np.compress(flat, b, axis=1), 0.0)
            table[1] += np.array([[a_0 @ r] for r in relu_0])  # one dot per time, as above
        else:
            table[1] += 0.0  # what an empty dot adds: -0.0 intercepts become +0.0
        return np.take_along_axis(kinks, order, axis=1), table

    def lookup_1d(self, tables, r: int, x: np.ndarray) -> np.ndarray:
        """Score at the 1-d points ``x`` from row ``r`` of ``tables_1d``, shape (q,).

        The points are argsorted and the row's K kinks searched into the sorted
        points: ``pos[j]`` counts the points at or below kink j, so sorted point
        i lies right of exactly #{j : pos[j] <= i} kinks, which is its
        ``searchsorted(kinks[r], x)`` index for any ordered keys (signed zeros,
        ties, infinities and NaN included). The (slope, intercept) pairs are
        repeated over the run of points in each interval and the scores
        scattered back. That is K binary searches instead of q: at m = 256 a
        lookup on fresh points took 72 µs at 2320 points and 41 µs at 1000,
        against 94 and 45 µs for a search of every sorted point.
        """
        kinks, table = tables
        order = np.argsort(x)
        xs = x[order]
        pos = np.empty(kinks.shape[1] + 2, dtype=np.intp)
        pos[0], pos[-1] = 0, x.size
        pos[1:-1] = np.searchsorted(xs, kinks[r], "right")
        slope, intercept = np.repeat(table[:, r], pos[1:] - pos[:-1], axis=1)
        out = np.empty_like(x)
        out[order] = (slope * xs + intercept) / self.width
        return out

    def rkhs_norm_sq(self) -> float:
        """Empirical squared norm of the represented function: ||A||_F^2 / m."""
        return float((self.out_weights**2).sum() / self.width)


def init_scorenet(m: int, d: int, d_e: int, seed: int) -> ScoreNet:
    """Zero output layer; hidden rows drawn uniformly in the unit ball of
    R^(d + d_e) and rescaled so the two block norms sum to exactly 1."""
    if m < 1:
        raise ValueError("width must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, d + d_e))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, size=(m, 1)) ** (1.0 / (d + d_e))
    rows = raw * radius
    w, u = rows[:, :d], rows[:, d:]
    scale = np.linalg.norm(w, axis=1) + np.linalg.norm(u, axis=1)
    rows = rows / scale[:, None]
    return ScoreNet(
        out_weights=np.zeros((d, m)),
        in_weights=rows[:, :d].copy(),
        time_weights=rows[:, d:].copy(),
    )


def _ou_forward(x0: np.ndarray, t: np.ndarray, rng: np.random.Generator):
    """Sample the forward conditional and its exact conditional score target."""
    decay = np.exp(-0.5 * t)[:, None]
    var = (1.0 - np.exp(-t))[:, None]
    noise = rng.standard_normal(x0.shape)
    xt = x0 * decay + np.sqrt(var) * noise
    target = -noise / np.sqrt(var)
    return xt, target


def dsm_loss(
    net: ScoreNet, data: SampleSet, cfg: DiffusionConfig, t_batch: int, seed: int
) -> float:
    """Monte-Carlo denoising score-matching loss.

    Each of the ``t_batch`` terms pairs a uniformly resampled data point with
    a uniform time on [t_min, horizon] and one forward-noise draw; the target
    is the exact conditional score. Deterministic in ``seed``.
    """
    if data.n == 0:
        raise ValueError("need a nonempty data set")
    if t_batch < 1:
        raise ValueError("t_batch must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.n, size=t_batch)
    t = rng.uniform(cfg.t_min, cfg.horizon, size=t_batch)
    xt, target = _ou_forward(data.points[idx], t, rng)
    pred = net.evaluate(xt, t, cfg.horizon)
    return float(((pred - target) ** 2).sum(axis=1).mean())


def hessian_top_eigenvalue(
    phi: np.ndarray, m: int, iters: int = 50, seed: int = 0
) -> float:
    """Largest eigenvalue of the descent Hessian (2 / (n m^2)) Phi^T Phi,
    estimated by power iteration without forming the matrix."""
    n = phi.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(phi.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        phi_v = np.einsum("nm,m->n", phi, v)
        hv = np.einsum("nm,n->m", phi, phi_v) * (2.0 / (n * m * m))
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            return 0.0
        v = hv / lam
    return lam


@dataclass(frozen=True)
class TrainReport:
    steps_run: int
    losses: tuple[float, ...]  # trajectory, including initial and final values
    rkhs_norm: float  # ||A||_F^2 / m after the final step
    lr: float = 0.0


def train(
    net: ScoreNet,
    data: SampleSet,
    cfg: DiffusionConfig,
    lr: float | None = None,
    tau_steps: int | None = None,
    seed: int = 0,
) -> TrainReport:
    """Full-batch gradient descent on a frozen denoising design, in place.

    One (time, noise) draw is frozen per data point, making the objective an
    exact quadratic in the output weights. ``tau_steps`` defaults to
    ceil(sqrt(n)); ``lr`` defaults to 1 over the power-iteration estimate of
    the largest Hessian eigenvalue. Only ``out_weights`` is modified.
    """
    if data.n == 0:
        raise ValueError("need a nonempty data set")
    if data.dim != net.dim:
        raise ValueError(f"dimension mismatch: data {data.dim}, net {net.dim}")
    n = data.n
    if tau_steps is None:
        tau_steps = math.ceil(math.sqrt(n))
    if tau_steps < 0:
        raise ValueError("tau_steps must be >= 0")

    rng = np.random.default_rng(seed)
    t = rng.uniform(cfg.t_min, cfg.horizon, size=n)
    xt, target = _ou_forward(data.points, t, rng)
    m = net.width
    phi = net.features(xt, t, cfg.horizon)

    if lr is None:
        top = hessian_top_eigenvalue(phi, m, seed=seed)
        if top <= 0.0:
            raise TrainingDivergence("degenerate design: zero curvature estimate")
        lr = 1.0 / top
    if not lr > 0:
        raise ValueError("lr must be positive")

    a = net.out_weights.copy()
    # one design product per step: its residual gives this loss and the next gradient
    resid = np.einsum("nm,dm->nd", phi, a) / m - target
    losses = [float((resid**2).sum(axis=1).mean())]
    initial = losses[0]
    bad_streak = 0
    for step in range(tau_steps):
        a -= lr * (np.einsum("nd,nm->dm", resid, phi) * (2.0 / (n * m)))
        resid = np.einsum("nm,dm->nd", phi, a) / m - target
        loss = float((resid**2).sum(axis=1).mean())
        losses.append(loss)
        if not math.isfinite(loss) or loss > 10.0 * initial:
            bad_streak += 1
            if bad_streak >= 10 or not math.isfinite(loss):
                raise TrainingDivergence(
                    f"loss {loss!r} at step {step + 1} exceeds 10x the initial "
                    f"{initial!r} (lr={lr!r})"
                )
        else:
            bad_streak = 0
    net.out_weights[...] = a
    return TrainReport(
        steps_run=tau_steps,
        losses=tuple(losses),
        rkhs_norm=net.rkhs_norm_sq(),
        lr=lr,
    )


def analytic_score_gauss(mu0: float, sigma0: float, t, x):
    """Exact score of the forward-diffused Gaussian N(mu0, sigma0^2).

    The time-t marginal is N(mu0 * exp(-t/2), sigma0^2 * exp(-t) + 1 - exp(-t)).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    mean = mu0 * np.exp(-0.5 * t)
    var = sigma0**2 * np.exp(-t) + 1.0 - np.exp(-t)
    return -(x - mean) / var


class _AnalyticGaussScore:
    """Adapter exposing the exact Gaussian score through the network interface."""

    def __init__(self, mu0: float, sigma0: float, dim: int = 1):
        self.mu0 = mu0
        self.sigma0 = sigma0
        self.dim = dim

    def evaluate(self, x, t, horizon):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape[0] == 1:
            t = np.full(np.atleast_2d(x).shape[0], t[0])
        return analytic_score_gauss(self.mu0, self.sigma0, t[:, None], np.atleast_2d(x))


def gauss_score_model(mu0: float, sigma0: float, dim: int = 1) -> _AnalyticGaussScore:
    return _AnalyticGaussScore(mu0, sigma0, dim)


def _reverse_pass(score, cfg: DiffusionConfig, requests) -> list[SampleSet]:
    """One lockstep reverse pass of ``score`` over every ``(n, seed)`` request.

    The chains of all requests advance together as one (N, d) state, each
    request's prior and noise drawn from its own generator in the order a
    lone call draws them. A 1-d ``ScoreNet`` is scored for all chains by one
    ``lookup_1d`` per step on ``tables_1d`` built once per block of at most
    ``_TABLE_CELLS`` cells; any other score by ``evaluate`` on each request's
    own rows, so dense rounding sees the row block a lone call passes.

    The steps run in noise blocks of at most ``_NOISE_CELLS`` cells (one step
    when a step alone is larger) inside each table block. Each request draws
    a noise block's normals in one call, which fills them in the order its
    per-step calls drew them, and the block is scaled by sqrt(dt) once. Each
    step then applies x + (0.5 x + s) dt + sqrt(dt) xi in place, in that
    order, so every draw is bit-identical to the per-step form, and the state
    is checked after every step, before the next score call.

    Returns one ``SampleSet`` per request, or raises the non-finite-state
    ``RuntimeError`` at the first step where any chain goes non-finite. Any
    exception the score raises propagates.
    """
    ts = np.linspace(cfg.horizon, cfg.t_min, cfg.reverse_steps + 1)
    dt = (cfg.horizon - cfg.t_min) / cfg.reverse_steps
    rngs = [np.random.default_rng(seed) for _, seed in requests]
    x = np.concatenate(
        [rng.standard_normal((n, score.dim)) for rng, (n, _) in zip(rngs, requests)]
    )
    edges = np.cumsum([0] + [n for n, _ in requests])
    live = [(rng, a, b) for rng, a, b in zip(rngs, edges[:-1], edges[1:]) if b > a]
    if not live:
        return [SampleSet(x.copy(), seed) for _, seed in requests]
    tabled = isinstance(score, ScoreNet) and score.dim == 1
    block = max(1, _TABLE_CELLS // (score.width + 1)) if tabled else cfg.reverse_steps
    rows = max(1, min(block, _NOISE_CELLS // x.size))
    noise = np.empty((rows,) + x.shape)
    drift = np.empty_like(x)
    for k0 in range(0, cfg.reverse_steps, block):
        k1 = min(k0 + block, cfg.reverse_steps)
        tables = score.tables_1d(ts[k0:k1], cfg.horizon) if tabled else None
        for j0 in range(k0, k1, rows):
            xi = noise[: min(rows, k1 - j0)]
            for rng, a, b in live:
                xi[:, a:b] = rng.standard_normal(xi[:, a:b].shape)
            xi *= math.sqrt(dt)
            for k in range(j0, j0 + len(xi)):
                if tabled:
                    s = score.lookup_1d(tables, k - k0, x[:, 0])[:, None]
                else:
                    s = np.concatenate(
                        [score.evaluate(x[a:b], ts[k], cfg.horizon) for _, a, b in live]
                    )
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(x, 0.5, out=drift)
                    np.add(drift, s, out=drift)
                    np.multiply(drift, dt, out=drift)
                    np.add(x, drift, out=x)
                    np.add(x, xi[k - j0], out=x)
                if not np.isfinite(x).all():
                    raise RuntimeError(
                        f"non-finite state at reverse step {k + 1} (t = {ts[k + 1]:.6g})"
                    )
    return [
        SampleSet(x[a:b].copy(), seed)
        for (_, seed), a, b in zip(requests, edges[:-1], edges[1:])
    ]


def reverse_sample_many(score, cfg: DiffusionConfig, requests: list[tuple[int, int]]) -> list:
    """Every ``(n, seed)`` request of ``reverse_sample`` from as few passes as possible.

    Returns, in order, the ``SampleSet`` that ``reverse_sample(score, cfg, n,
    seed)`` returns for each request. The requests run in order in lockstep
    passes of at most ``_PASS_POINTS`` chains (a larger request runs alone).
    The first pass with a non-finite state raises, naming the earliest step
    at which any of its chains went non-finite; any other exception, such as
    one raised by the score's ``evaluate``, propagates.
    """
    results, group, points = [], [], 0
    for n, seed in requests:
        if group and points + n > _PASS_POINTS:
            results += _reverse_pass(score, cfg, group)
            group, points = [], 0
        group.append((n, seed))
        points += n
    return results + (_reverse_pass(score, cfg, group) if group else [])


def reverse_sample(score, cfg: DiffusionConfig, n: int, seed: int) -> SampleSet:
    """Euler-Maruyama integration of the reverse-time SDE from the N(0, I) prior.

    ``score`` is a trained network or any object with a ``dim`` and an
    ``evaluate(x, t, horizon)`` method (e.g. the analytic Gaussian score).
    Runs on the uniform grid from the horizon down to t_min; a non-finite
    state aborts with the offending step named. This is the one-request case
    of the lockstep pass of ``reverse_sample_many``: a 1-d ``ScoreNet`` is
    scored from tables per block of steps, bit-identical to a per-step
    ``evaluate``, and every other score by one ``evaluate`` per step.
    """
    (result,) = _reverse_pass(score, cfg, [(n, seed)])
    return result


def draw_seed(rng: np.random.Generator) -> int:
    """The ``reverse_sample`` seed a model draw takes from its caller's generator."""
    return int(rng.integers(0, 2**63))


@dataclass(frozen=True)
class DiffusionModel:
    """A trained score net with the sampler settings it was trained under.

    ``pool`` holds draws served ahead of time by ``serve``: the ``SampleSet``
    of each ``reverse_sample`` call, keyed by ``(n, seed)`` and removed when
    it is drawn. A key served twice holds one draw; its second draw runs
    afresh and gives the same bytes.
    """

    net: ScoreNet
    cfg: DiffusionConfig
    pool: dict = field(default_factory=dict, compare=False, repr=False)

    def serve(self, requests: list[tuple[int, int]]) -> None:
        """Run the ``(n, seed)`` requests in one ``reverse_sample_many`` and pool
        them; a blow-up or any other exception propagates and pools nothing."""
        self.pool.update(zip(requests, reverse_sample_many(self.net, self.cfg, requests)))

    def sample(self, n: int, seed: int) -> SampleSet:
        """``reverse_sample(net, cfg, n, seed)``, taken from the pool when served."""
        served = self.pool.pop((n, seed), None)
        return reverse_sample(self.net, self.cfg, n, seed) if served is None else served

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` reverse-SDE draws, seeded from ``rng``."""
        return self.sample(n, draw_seed(rng)).points


def prior_kl_gauss(mu0: float, sigma0: float, cfg: DiffusionConfig) -> float:
    """Closed-form KL between the diffused data law at the horizon and N(0, 1).

    The data model is Gaussian (moment-matched when the true generation law
    is not); the mismatch shrinks exponentially in the horizon.
    """
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    decay = math.exp(-cfg.horizon)
    mean_t = mu0 * math.exp(-0.5 * cfg.horizon)
    var_t = sigma0**2 * decay + 1.0 - decay
    return 0.5 * (var_t + mean_t**2 - 1.0 - math.log(var_t))
