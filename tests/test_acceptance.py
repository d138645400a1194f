"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical checks pin their seeds so reruns are exact.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sclab.bounds import (
    BoundInputs,
    alpha_requirement,
    balanced_coefficients_gamma,
    bound_diffusion,
    bound_fixed_ratio,
    coefficients,
    coefficients_bruteforce,
    f_lambda,
    lambda_star,
    required_samples_balanced,
    required_samples_quartic,
)
from sclab.cli import parse_config, run_scenario
from sclab.diffusion import (
    DiffusionConfig,
    analytic_score_gauss,
    gauss_score_model,
    init_scorenet,
    prior_kl_gauss,
    reverse_sample,
    train,
)
from sclab.distributions import Gauss1D
from sclab.divergences import kl_quadrature, tv_quadrature
from sclab.kernels import KernelSpec, fit, l1_error
from sclab.loop import KdeGenerator, LoopConfig, run_replicates
from sclab.mixing import MixtureSchedule


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def random_general(rng, i):
    rows = []
    for g in range(1, i + 1):
        w = rng.dirichlet(np.ones(g + 1))
        w[0] = 1.0 - w[1:].sum()
        rows.append((float(w[0]), tuple(float(x) for x in w[1:])))
    return MixtureSchedule.general(rows)


def test_criterion_1_coefficient_oracle():
    start = time.perf_counter()
    worst = 0.0
    named = [
        (MixtureSchedule.full_synthetic(10), 10),
        (MixtureSchedule.balanced(10), 10),
        (MixtureSchedule.fixed_ratio(100, 300, 10), 10),
    ]
    rng = np.random.default_rng(20240901)
    cases = named + [
        (sched := random_general(rng, i := int(rng.integers(1, 11))), i)
        for _ in range(500)
    ]
    for schedule, i in cases:
        fast = coefficients(schedule, i).values
        slow = coefficients_bruteforce(schedule, i).values
        worst = max(worst, max(abs(a - b) for a, b in zip(fast, slow)))
    elapsed = time.perf_counter() - start
    report(
        "1 coefficient-oracle",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |recursion - expansion| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2a_fixed_ratio_identity():
    worst = 0.0
    for n, m, i in [(128, 128, 1), (100, 300, 4), (9000, 13000, 3), (50, 0, 6)]:
        lhs = bound_fixed_ratio(n, m, i, d=1, delta=0.1, kl=0.02)
        rhs = bound_diffusion(
            MixtureSchedule.fixed_ratio(n, m, i),
            BoundInputs(n=(n + m,) * (i + 1), d=1, delta=0.1, kl_terms=(0.02,) * (i + 1)),
        )
        worst = max(worst, abs(lhs - rhs))
    pref = bound_fixed_ratio(100, 100, 1, d=1, delta=0.5, kl=0.0)
    expected = 1.5 * (200**-0.25 * math.sqrt(math.log(2.0)))
    worst = max(worst, abs(pref - expected))
    report("2a fixed-ratio-identity", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_2b_balanced_gamma_identity_as_stated():
    """Recursion coefficients vs the Gamma-ratio closed form, i <= 10.

    The identity ``coefficients == balanced_coefficients_gamma`` is false as
    stated. The balanced recursion A_t = sum_{j=t+1}^{i} A_j / (j+1)
    telescopes to A_k = 1/(k+2) for k < i, while the Gamma form
    sum_{j=k}^{i-1} (j+1)!/(i+1)! counts only consecutive substitution
    chains: at i = 3, k = 0 it gives 3/8 against the exact 1/2. This test
    holds what the two docstrings promise, against exact rationals built
    here: (a) the recursion is 1/(k+2) for k < i and 1 at k = i; (b) the
    Gamma form equals the recursion for i <= 2 and for k >= i - 2; (c) at
    every other entry it falls short of the recursion by exactly
    1/(k+2) - sum_{j=k}^{i-1} (j+1)!/(i+1)!, a strictly positive gap.
    """
    worst_rec = worst_agree = worst_gap = 0.0
    under, where = 0.0, ""
    for i in range(1, 11):
        rec = coefficients(MixtureSchedule.balanced(i), i).values
        gam = balanced_coefficients_gamma(i)
        worst_rec = max(worst_rec, abs(rec[i] - 1.0))
        worst_agree = max(worst_agree, abs(gam[i] - rec[i]))
        for k in range(i):
            exact = Fraction(1, k + 2)
            gamma_exact = sum(
                Fraction(math.factorial(j + 1), math.factorial(i + 1)) for j in range(k, i)
            )
            worst_rec = max(worst_rec, abs(rec[k] - float(exact)))
            if i <= 2 or k >= i - 2:
                assert gamma_exact == exact
                worst_agree = max(worst_agree, abs(gam[k] - rec[k]))
            else:
                assert gamma_exact < exact
                gap = rec[k] - gam[k]
                worst_gap = max(worst_gap, abs(gap - float(exact - gamma_exact)))
                if gap > under:
                    under = gap
                    where = f"i={i}, k={k}: recursion {rec[k]:.6f} vs gamma-form {gam[k]:.6f}"
    report(
        "2b balanced-gamma-identity",
        max(worst_rec, worst_agree, worst_gap) <= 1e-12,
        f"recursion vs 1/(k+2) {worst_rec:.2e}, agreement {worst_agree:.2e}, "
        f"gap vs exact {worst_gap:.2e}; largest under-count {under:.6f} at {where}",
    )


def test_criterion_3_kde_rate():
    start = time.perf_counter()
    g = Gauss1D(0, 1)
    kernel = KernelSpec.gaussian()
    ns = [2**k for k in range(8, 15)]
    seeds = np.random.default_rng(2024).integers(0, 2**63, size=(len(ns), 10))
    medians = []
    for j, n in enumerate(ns):
        errs = [
            l1_error(fit(g.sample(n, int(seeds[j, r])), kernel), g) for r in range(10)
        ]
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - start
    report(
        "3 kde-rate",
        -0.45 <= slope <= -0.20 and elapsed < 300.0,
        f"log-log slope {slope:.3f} (theory -1/3), {elapsed:.0f} s",
    )


def test_criterion_4_phase_transition():
    start = time.perf_counter()
    ok = all(f_lambda(0.0, i) == 1.0 for i in range(1, 7))
    known = abs(f_lambda(1.0, 2) - 7.0 * 2**-2.25) <= 1e-10
    stars = [lambda_star(i) for i in range(1, 7)]
    increasing = all(b > a for a, b in zip(stars, stars[1:]))
    rise_fall = True
    for i, star in enumerate(stars, start=1):
        grid = np.linspace(0.0, 3 * star, 301)
        vals = [f_lambda(float(x), i) for x in grid]
        k = int(np.argmax(vals))
        rise_fall &= 0 < k < len(grid) - 1
        rise_fall &= all(np.diff(vals[: k + 1]) > -1e-12)
        rise_fall &= all(np.diff(vals[k:]) < 1e-12)
    elapsed = time.perf_counter() - start
    report(
        "4 phase-transition",
        ok and known and increasing and rise_fall and elapsed < 5.0,
        f"peaks {[f'{s:.3f}' for s in stars]}, {elapsed:.1f} s",
    )


def test_criterion_5_self_consuming_kde_trends():
    start = time.perf_counter()
    g = Gauss1D(0, 1)
    gen = KdeGenerator(kernel=KernelSpec.gaussian())

    def medians(schedule):
        cfg = LoopConfig(
            generator=gen,
            schedule=schedule,
            p0=g,
            sizes=(2048,) * 6,
            replicates=12,
            base_seed=1000,
        )
        _, summary = run_replicates(cfg)
        return summary.tv_median

    syn = medians(MixtureSchedule.full_synthetic(6))
    mixed = medians(MixtureSchedule.real_each_gen(0.5, 6))
    control = medians(MixtureSchedule.all_real(6))

    rho, pval = stats.spearmanr(range(1, 7), syn)
    a_ok = rho > 0 and pval < 0.05
    b_ok = mixed[-1] < syn[-1]
    c_ok = max(control) <= 2.0 * control[0]
    elapsed = time.perf_counter() - start
    report(
        "5 self-consuming-kde-trends",
        a_ok and b_ok and c_ok and elapsed < 600.0,
        f"syn rho={rho:.2f} p={pval:.4f}; final syn {syn[-1]:.4f} vs mixed "
        f"{mixed[-1]:.4f}; control ratio {max(control) / control[0]:.2f}; {elapsed:.0f} s",
    )


def test_criterion_6_toy_diffusion():
    start = time.perf_counter()
    cfg = DiffusionConfig()
    g = Gauss1D(0, 1)

    # (i) score recovery at the theory-prescribed width and step budget
    xs = np.linspace(-3, 3, 61)[:, None]
    ts = np.linspace(0.1, cfg.horizon, 30)
    errors = []
    for seed in range(5):
        data = g.sample(5000, 100 + seed)
        net = init_scorenet(5000, 1, 8, 200 + seed)
        train(net, data, cfg, seed=300 + seed)  # tau = ceil(sqrt(5000)) steps
        num = den = 0.0
        for t in ts:
            pred = net.evaluate(xs, float(t), cfg.horizon)[:, 0]
            true = analytic_score_gauss(0, 1, float(t), xs[:, 0])
            num += float(((pred - true) ** 2).sum())
            den += float((true**2).sum())
        errors.append(math.sqrt(num / den))
    score_err = float(np.median(errors))

    # (ii) reverse moments under the exact score
    s = reverse_sample(gauss_score_model(0, 1), cfg, 10**4, 3)
    mean_ok = abs(s.points.mean()) < 0.03
    var_ok = abs(s.points.var() - 1.0) < 0.05

    # (iii) prior mismatch shrinks exponentially in the horizon
    horizons = [1.0, 2.0, 4.0, 8.0]
    kls = [prior_kl_gauss(1.0, 1.3, DiffusionConfig(horizon=T)) for T in horizons]
    slope, intercept = np.polyfit(horizons, np.log(kls), 1)
    fitted = np.polyval((slope, intercept), horizons)
    ss_res = float(np.sum((np.log(kls) - fitted) ** 2))
    ss_tot = float(np.sum((np.log(kls) - np.mean(np.log(kls))) ** 2))
    r2 = 1 - ss_res / ss_tot

    elapsed = time.perf_counter() - start
    report(
        "6 toy-diffusion",
        score_err < 0.2 and mean_ok and var_ok and r2 > 0.99 and elapsed < 600.0,
        f"median score error {score_err:.3f}; moments ({s.points.mean():.4f}, "
        f"{s.points.var():.4f}); KL fit R^2 {r2:.4f}; {elapsed:.0f} s",
    )


def test_criterion_7_pinsker_and_triangle():
    rng = np.random.default_rng(55)
    box = ((-30.0, 30.0),)
    pinsker_ok = True
    for _ in range(200):
        a = Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.0)))
        b = Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.0)))
        tv = tv_quadrature(a.pdf, b.pdf, box, nodes=2048)
        kl = kl_quadrature(a.pdf, b.pdf, box, nodes=2048)
        pinsker_ok &= tv.value <= math.sqrt(kl / 2.0) + tv.tolerance + 1e-9
    triangle_ok = True
    for _ in range(200):
        ds = [
            Gauss1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2.0)))
            for _ in range(3)
        ]
        ab = tv_quadrature(ds[0].pdf, ds[1].pdf, box, nodes=2048)
        bc = tv_quadrature(ds[1].pdf, ds[2].pdf, box, nodes=2048)
        ac = tv_quadrature(ds[0].pdf, ds[2].pdf, box, nodes=2048)
        slack = 2 * (ab.tolerance + bc.tolerance + ac.tolerance) + 1e-9
        triangle_ok &= ac.value <= ab.value + bc.value + slack
    report(
        "7 pinsker-and-triangle",
        pinsker_ok and triangle_ok,
        "200 pairs + 200 triples at quadrature tolerance",
    )


def test_criterion_8_mixture_subadditivity():
    rng = np.random.default_rng(11)
    p0 = Gauss1D(0, 1)
    box = ((-25.0, 25.0),)
    violations = 0
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
        if lhs > rhs + 1e-3:
            violations += 1
    report("8 mixture-subadditivity", violations == 0, f"{violations} violations in 100")


def test_criterion_9_sample_schedule_ops():
    quartic_ok = required_samples_quartic(2, 4, 0.5) == 4096
    alpha_ok = alpha_requirement(5) == pytest.approx(0.8, abs=1e-15)
    mono_ok = True
    for i in range(1, 11):
        counts = required_samples_balanced(i, 1, 0.5)
        mono_ok &= all(a >= b for a, b in zip(counts, counts[1:]))
    report(
        "9 sample-schedule-ops",
        quartic_ok and alpha_ok and mono_ok,
        "quartic(2,4,0.5)=4096; alpha(5)=0.8; balanced schedules non-increasing",
    )


def test_criterion_10_determinism(tmp_path):
    text = """
[run]
scenario = full_synthetic
out_dir = {out}
base_seed = 424242
replicates = 2

[target]
kind = gauss1d

[schedule]
kind = full_synthetic
max_generation = 3

[loop]
generator = kde
sample_sizes = constant:512

[kde]
kernel = gaussian
"""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_scenario(parse_config(text.format(out=out_a)))
    run_scenario(parse_config(text.format(out=out_b)))
    identical = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    report("10 determinism", identical, "results.csv bit-identical across two runs")
