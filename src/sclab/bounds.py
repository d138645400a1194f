"""Closed-form machinery for error propagation across training generations.

Covers the coefficient recursion that folds per-generation estimation errors
into a final total-variation bound, an independent path-expansion oracle for
that recursion, bound evaluators for the diffusion / kernel-estimate / flow
generator families, sample-size schedules, and the synthetic-data
phase-transition curve with its peak as the root of its first-order condition.

Every evaluator fixes the hidden proportionality constants to 1: outputs are
comparable across configurations ("up to constant"), never absolutely
calibrated against a measured distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import MixtureSchedule

_ORACLE_LIMIT = 12  # path expansion is exponential in the generation count

# generator families with a bound evaluator: bound_diffusion, bound_kde, bound_flow
FAMILIES = ("diffusion", "kde", "flow")


@dataclass(frozen=True)
class CoefficientTable:
    """Weights A_0..A_i propagating generation-k error into the final bound."""

    generation: int
    values: tuple[float, ...]  # index k holds A_k; values[generation] == 1

    def __post_init__(self):
        if len(self.values) != self.generation + 1:
            raise ValueError("coefficient table must hold generation + 1 entries")
        if self.values[self.generation] != 1.0:
            raise ValueError("the final coefficient must equal 1")
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise ValueError("coefficients must be finite and nonnegative")


def _beta(schedule: MixtureSchedule, row: int, model: int) -> float:
    """Weight the generation-``row`` mixture puts on model ``model`` (1-based)."""
    _, betas = schedule.weights_at(row)
    return betas[model - 1]


def coefficients(schedule: MixtureSchedule, i: int) -> CoefficientTable:
    """Backward recursion: A_i = 1, A_t = sum_{j=t+1}^{i} beta_j^{t+1} A_j.

    For the balanced schedule (beta_j^m = 1/(j+1)) the recursion telescopes
    to the exact table A_k = 1/(k+2) for k < i.
    """
    if i < 0:
        raise ValueError("generation must be >= 0")
    if i > 0 and i > schedule.max_generation:
        raise ValueError(f"schedule only defines rows up to {schedule.max_generation}")
    a = np.zeros(i + 1)
    a[i] = 1.0
    for t in range(i - 1, -1, -1):
        a[t] = sum(_beta(schedule, j, t + 1) * a[j] for j in range(t + 1, i + 1))
    return CoefficientTable(generation=i, values=tuple(float(v) for v in a))


def coefficients_bruteforce(schedule: MixtureSchedule, i: int) -> CoefficientTable:
    """Independent oracle: expand the error recursion path by path.

    The bound recursion reads E_{j+1} <= f(n_j) + sum_m beta_j^m E_m with
    E_1 <= f(n_0). Fully substituting, the coefficient of f(n_k) is the sum
    over all descending chains i -> m_1 -> ... -> m_r = k+1 of the product of
    the step weights. Exponential in ``i``; limited to small generations.
    """
    if i < 0:
        raise ValueError("generation must be >= 0")
    if i > _ORACLE_LIMIT:
        raise ValueError(f"path expansion supports i <= {_ORACLE_LIMIT}")
    coeff = np.zeros(i + 1)
    coeff[i] = 1.0

    def expand(row: int, weight: float) -> None:
        # ``row`` is the mixture row feeding the current expansion step
        _, betas = schedule.weights_at(row)
        for m in range(1, row + 1):
            w = weight * betas[m - 1]
            if w == 0.0:
                continue
            coeff[m - 1] += w
            if m >= 2:
                expand(m - 1, w)

    if i >= 1:
        expand(i, 1.0)
    return CoefficientTable(generation=i, values=tuple(float(v) for v in coeff))


def balanced_coefficients_gamma(i: int) -> tuple[float, ...]:
    """Gamma-ratio coefficient sums for the uniform-mixture schedule.

    A_k = sum_{j=k}^{i-1} Gamma(j+2) / Gamma(i+2) for k < i, and A_i = 1,
    computed via log-Gamma differences. Counts only consecutive substitution
    chains, so it matches the exact table A_k = 1/(k+2) of ``coefficients``
    for i <= 2 and for the entries k >= i - 2, and under-counts earlier
    entries (first at i = 3, k = 0: 3/8 against 1/2); the front-loaded
    sample schedule ``required_samples_balanced`` is defined in its terms.
    """
    vals = []
    for k in range(i):
        ratios = [math.exp(math.lgamma(j + 2) - math.lgamma(i + 2)) for j in range(k, i)]
        vals.append(math.fsum(ratios))
    vals.append(1.0)
    return tuple(vals)


@dataclass(frozen=True)
class BoundInputs:
    """Per-generation inputs shared by the bound evaluators."""

    n: tuple[int, ...]  # sample counts n_0 .. n_i
    d: int = 1
    delta: float = 0.1
    kl_terms: tuple[float, ...] | None = None  # per-generation prior mismatch
    s: int | None = None  # smoothness order (kernel-estimate variant)
    R: float | None = None  # velocity-field norm cap (flow variant)

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        if not n or any(v < 1 for v in n):
            raise ValueError("all sample counts must be >= 1")
        object.__setattr__(self, "n", n)
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.s is not None and self.s < 1:
            raise ValueError("smoothness order s must be >= 1")
        if self.R is not None and not 0.0 <= self.R < math.inf:
            raise ValueError("norm cap R must be nonnegative and finite")
        if self.kl_terms is not None:
            kl = tuple(float(v) for v in self.kl_terms)
            if len(kl) != len(n):
                raise ValueError("kl_terms must match the sample-count list")
            if any(v < 0 for v in kl):
                raise ValueError("kl_terms must be nonnegative")
            object.__setattr__(self, "kl_terms", kl)

    @property
    def generation(self) -> int:
        return len(self.n) - 1

    def kl_at(self, k: int) -> float:
        return 0.0 if self.kl_terms is None else self.kl_terms[k]


def _weighted_sum(schedule: MixtureSchedule, inputs: BoundInputs, term) -> float:
    """A-weighted sum of per-generation terms.

    The fully synthetic cycle follows its dedicated one-term-per-generation
    form, summing generations 1..i (all weights 1) rather than 0..i.
    """
    i = inputs.generation
    if schedule.kind == "full_synthetic" and i >= 1:
        return math.fsum(term(k) for k in range(1, i + 1))
    table = coefficients(schedule, i)
    return math.fsum(table.values[k] * term(k) for k in range(i + 1))


def _terms(family: str, inputs: BoundInputs):
    """Per-generation term k -> value of ``family``'s bound; the one place
    each family's formula is written."""
    if family not in FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    i = max(inputs.generation, 1)
    n, d, delta = inputs.n, inputs.d, inputs.delta
    if family == "diffusion":
        log_term = math.sqrt(d * math.log(d * i / delta))
        return lambda k: n[k] ** -0.25 * log_term + math.sqrt(inputs.kl_at(k))
    if family == "kde":
        if inputs.s is None:
            raise ValueError("kernel-estimate bound needs the smoothness order s")
        s = inputs.s
        log_term = math.sqrt(math.log(i / delta))
        rate = s / (2 * s + 2 * d)
        var_rate = (2 * s + d) / (4 * s + 4 * d)
        return lambda k: n[k] ** -rate * log_term + n[k] ** -var_rate
    if inputs.R is None:
        raise ValueError("flow bound needs the norm cap R")
    R = inputs.R
    log_term = math.log(i / delta) ** 0.25
    return lambda k: n[k] ** -0.25 * R * math.sqrt(1.0 + R * R) * log_term


def bound_diffusion(schedule: MixtureSchedule, inputs: BoundInputs) -> float:
    """Up-to-constant TV bound for the diffusion generator family.

    Per-generation term: n_k**(-1/4) * sqrt(d * log(d * i / delta)) plus the
    square root of the prior-mismatch KL.
    """
    return _weighted_sum(schedule, inputs, _terms("diffusion", inputs))


def bound_kde(schedule: MixtureSchedule, inputs: BoundInputs) -> float:
    """Up-to-constant TV bound for the kernel-estimate generator family.

    Per-generation term: n_k**(-s/(2s+2d)) * sqrt(log(i / delta)) plus
    n_k**(-(2s+d)/(4s+4d)).
    """
    return _weighted_sum(schedule, inputs, _terms("kde", inputs))


def bound_flow(schedule: MixtureSchedule, inputs: BoundInputs) -> float:
    """Up-to-constant TV bound for the normalizing-flow family (evaluator only).

    Per-generation term: n_k**(-1/4) * R * sqrt(1 + R^2) * log(i/delta)**(1/4).
    """
    return _weighted_sum(schedule, inputs, _terms("flow", inputs))


def bound_fixed_ratio(
    n: int, m: int, i: int, d: int = 1, delta: float = 0.1, kl: float = 0.0
) -> float:
    """Closed form for the fixed real/synthetic split: geometric-series prefactor.

    Equals the generic diffusion bound under the matching schedule with all
    generations holding n + m samples.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 real samples and m >= 0 synthetic samples")
    if i < 1:
        raise ValueError("generation must be >= 1")
    prefactor = (1.0 + m / n) * (1.0 - (m / (n + m)) ** (i + 1))
    inputs = BoundInputs(n=(n + m,) * (i + 1), d=d, delta=delta, kl_terms=(kl,) * (i + 1))
    return prefactor * _terms("diffusion", inputs)(i)


def bound_real_each_gen(
    alpha: float, i: int, n: int, d: int = 1, delta: float = 0.1, kl: float = 0.0
) -> float:
    """Closed form when every generation keeps an alpha share of real data."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if i < 1 or n < 1:
        raise ValueError("need generation >= 1 and n >= 1")
    factor = (1.0 - (1.0 - alpha) ** (i + 1)) / alpha
    inputs = BoundInputs(n=(n,) * (i + 1), d=d, delta=delta, kl_terms=(kl,) * (i + 1))
    return factor * _terms("diffusion", inputs)(i)


def f_lambda(lam: float, i: int) -> float:
    """Phase-transition factor of the synthetic-to-real ratio ``lam``.

    Stabilized factored form (1+lam)**(3/4) * (1 - (lam/(1+lam))**(i+1)),
    exact for all lam >= 0.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if i < 1:
        raise ValueError("generation must be >= 1")
    ratio = lam / (1.0 + lam)
    return (1.0 + lam) ** 0.75 * (1.0 - ratio ** (i + 1))


def f_lambda_direct(lam: float, i: int) -> float:
    """Unstabilized evaluation ((1+lam)**(i+1) - lam**(i+1)) / (1+lam)**(i+1/4)."""
    return ((1.0 + lam) ** (i + 1) - lam ** (i + 1)) / (1.0 + lam) ** (i + 0.25)


def lambda_star(i: int) -> float:
    """Peak of the phase-transition curve: the root of its first-order condition.

    With u = lam/(1+lam), f(lam, i) = (1-u)**(1/4) * S(u), where
    S(u) = sum_{j=0}^{i} u**j. So d log f/du has the sign of
    h(u) = 3*S(u) - 4*(i+1)*u**i. Here h(0) = 3 > 0, h(1) = -(i+1) < 0 and
    h(u)/u**i is strictly decreasing, so the peak is the only root of h.
    Divided by 3*u**i, the root solves sum_{k=0}^{i} (1 + 1/lam)**k = 4(i+1)/3.
    Bernoulli's (1+x)**k >= 1 + k*x puts it at lam >= 3i/2, and
    (1+x)**k <= exp(k*x) at lam <= i/log(4/3) < 4i, so [i, 4i] brackets it
    with a margin on both sides.

    h is solved in v = 1/(1+lam) = 1-u, with u**k = exp(k*log1p(-v)) and
    S(u) = (1 - u**(i+1))/v, which keeps full relative precision as v -> 0
    at large i. The bracket is bisected until its ends are adjacent floats,
    and the end with the smaller |h| is the root.
    """
    if i < 1:
        raise ValueError("generation must be >= 1")

    def h(v: float) -> float:
        log_u = math.log1p(-v)
        return -3.0 * math.expm1((i + 1) * log_u) / v - 4.0 * (i + 1) * math.exp(i * log_u)

    lo, hi = 1.0 / (1.0 + 4.0 * i), 1.0 / (1.0 + i)  # h(lo) < 0 < h(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    v = min(lo, hi, key=lambda x: abs(h(x)))
    return (1.0 - v) / v


def _ceil_snap(x: float, rtol: float = 1e-9) -> int:
    """Ceiling that forgives float round-off just above an exact integer."""
    nearest = round(x)
    if abs(x - nearest) <= rtol * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def required_samples_quartic(i: int, d: int, eps: float) -> int:
    """Per-generation sample count (i * sqrt(d) / eps)**4 controlling the
    fully synthetic cycle's error to order eps."""
    if i < 1 or d < 1 or not eps > 0:
        raise ValueError("need i >= 1, d >= 1, eps > 0")
    return max(1, _ceil_snap((i * math.sqrt(d) / eps) ** 4))


def required_samples_balanced(i: int, d: int, eps: float) -> tuple[int, ...]:
    """Sample schedule n_0..n_i for the uniform-mixture cycle at error order eps.

    Earlier generations need more data: their output feeds every later
    mixture. Generation k is sized by the Gamma-ratio sum
    ``balanced_coefficients_gamma(i)[k]``.
    """
    if i < 1 or d < 1 or not eps > 0:
        raise ValueError("need i >= 1, d >= 1, eps > 0")
    base = math.sqrt(d) / eps
    counts = [
        max(1, _ceil_snap(((i + 1) * base * a_k) ** 4))
        for a_k in balanced_coefficients_gamma(i)[:-1]
    ]
    counts.append(max(1, _ceil_snap(base**4)))
    return tuple(counts)


def alpha_requirement(i: int) -> float:
    """Real-data share needed in the final generation: (i - 1) / i."""
    if i < 1:
        raise ValueError("generation must be >= 1")
    return (i - 1) / i


def bound_table_rows(
    schedule: MixtureSchedule, inputs: BoundInputs, family: str = "diffusion"
) -> list[dict]:
    """Per-generation breakdown rows for the bounds report CSV.

    ``total_bound`` is the family's ``bound_<family>`` value.
    """
    term = _terms(family, inputs)
    total = _weighted_sum(schedule, inputs, term)
    i = inputs.generation
    table = coefficients(schedule, i)
    return [
        {
            "schedule": schedule.kind,
            "i": i,
            "k": k,
            "A_k": table.values[k],
            "bound_term": term(k),
            "total_bound": total,
        }
        for k in range(i + 1)
    ]
