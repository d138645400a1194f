import weakref
from pathlib import Path

import numpy as np
import pytest

from sclab import diffusion, kernels, loop
from sclab.cli import parse_config, run_scenario
from sclab.diffusion import DiffusionConfig, ScoreNet
from sclab.distributions import Gauss1D
from sclab.divergences import tv_quadrature
from sclab.kernels import KernelSpec
from sclab.loop import (
    BalancedSizes,
    ConstantSizes,
    DiffusionGenerator,
    ExplicitSizes,
    KdeGenerator,
    LoopConfig,
    LoopError,
    QuarticSizes,
    run_loop,
    run_replicates,
    trace_rows,
)
from sclab.mixing import MixtureSchedule
from test_kernels import window_rule

GAUSS = Gauss1D(0, 1)
KDE = KdeGenerator(kernel=KernelSpec.gaussian())


def kde_config(schedule, n=512, generations=None, replicates=1, seed=100):
    return LoopConfig(
        generator=KDE,
        schedule=schedule,
        p0=GAUSS,
        sample_sizes=ConstantSizes(n),
        max_generation=generations or schedule.max_generation,
        replicates=replicates,
        base_seed=seed,
        eval_nodes=4096,
    )


class TestSizeRules:
    def test_constant(self):
        assert ConstantSizes(64).resolve(4, 1) == (64, 64, 64, 64)

    def test_explicit_and_mismatch(self):
        assert ExplicitSizes((1, 2, 3)).resolve(3, 1) == (1, 2, 3)
        with pytest.raises(ValueError):
            ExplicitSizes((1, 2)).resolve(3, 1)

    def test_quartic_targets_final_generation(self):
        sizes = QuarticSizes(eps=1.0).resolve(5, 1)
        assert sizes == (256,) * 5  # (4 * sqrt(1) / 1) ** 4

    def test_balanced_front_loaded(self):
        sizes = BalancedSizes(eps=1.0).resolve(3, 1)
        assert len(sizes) == 3
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestSingleGeneration:
    def test_one_generation_trains_on_real_only(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(1), n=256)
        trace = run_loop(cfg, 0)
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.n_real == 256
        assert rec.n_synth == ()
        assert rec.tv_to_p0.value == rec.tv_to_prev_mixture.value
        assert 0.0 < rec.tv_to_p0.value < 0.3

    def test_schedule_must_cover_generations(self):
        with pytest.raises(ValueError):
            kde_config(MixtureSchedule.full_synthetic(2), generations=5)


class TestLoopStructure:
    def test_full_synthetic_counts(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(4), n=256)
        trace = run_loop(cfg, 0)
        assert len(trace.records) == 4
        for rec in trace.records[1:]:
            assert rec.n_real == 0
            assert sum(rec.n_synth) == 256
            # only the latest model feeds the next draw
            assert rec.n_synth[-1] == 256

    def test_balanced_uses_full_history(self):
        cfg = kde_config(MixtureSchedule.balanced(4), n=600)
        trace = run_loop(cfg, 0)
        last = trace.records[-1]
        assert last.n_real + sum(last.n_synth) == 600
        # three earlier models and the real source all contribute draws
        assert last.n_real > 0
        assert all(c > 0 for c in last.n_synth)

    def test_mixed_schedule_keeps_real_share(self):
        cfg = kde_config(MixtureSchedule.real_each_gen(0.5, 3), n=2000)
        trace = run_loop(cfg, 0)
        for rec in trace.records[1:]:
            assert abs(rec.n_real / rec.n_total - 0.5) < 0.1

    def test_records_are_replayable(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(3), n=128)
        a = run_loop(cfg, 0)
        b = run_loop(cfg, 0)
        for ra, rb in zip(a.records, b.records):
            assert ra.seed == rb.seed
            assert ra.tv_to_p0.value == rb.tv_to_p0.value
            assert ra.bound_value == rb.bound_value

    def test_replicates_use_distinct_seeds(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(2), n=128, replicates=3)
        traces, _ = run_replicates(cfg)
        seeds = {t.replicate_seed for t in traces}
        assert seeds == {100, 101, 102}
        values = {t.records[0].tv_to_p0.value for t in traces}
        assert len(values) == 3

    def test_bound_values_mirror_schedule(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(3), n=256)
        trace = run_loop(cfg, 0)
        bounds_seen = [r.bound_value for r in trace.records]
        assert all(v > 0 and np.isfinite(v) for v in bounds_seen)
        # error accumulates: later generations carry weakly larger bounds
        assert bounds_seen[-1] >= bounds_seen[1]


class TestDecompositionConsistency:
    def test_triangle_plus_subadditivity_chain(self):
        cfg = kde_config(MixtureSchedule.balanced(4), n=512, seed=42)
        trace = run_loop(cfg, 0)
        for g in range(2, 5):
            rec = trace.records[g - 1]
            _, betas = cfg.schedule.weights_at(g - 1)
            rhs = rec.tv_to_prev_mixture.value + sum(
                b * trace.records[k - 1].tv_to_p0.value
                for k, b in enumerate(betas, start=1)
            )
            slack = 3 * (
                rec.tv_to_p0.tolerance
                + rec.tv_to_prev_mixture.tolerance
                + sum(r.tv_to_p0.tolerance for r in trace.records[: g - 1])
            )
            assert rec.tv_to_p0.value <= rhs + slack + 1e-9


def count_kde_pdf(monkeypatch):
    """Record each kde_pdf call's model, and how many arrays returned by earlier
    calls are still alive at the time of the call."""
    calls, outputs = [], []
    real = kernels.kde_pdf

    def counted(model, x):
        calls.append((model, sum(ref() is not None for ref in outputs)))
        out = real(model, x)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(kernels, "kde_pdf", counted)
    return calls


def fresh_measurement(self, cfg, seeds):
    """``KdeGenerator.measurement`` with every pdf evaluated afresh on the grid."""
    p0, box, nodes = cfg.p0, cfg.p0.support_hint, cfg.eval_nodes

    def measure(g, model, weights, models):
        tv0 = tv_quadrature(model.pdf, p0.pdf, box, nodes=nodes)
        if g == 1:
            return tv0, tv0
        alpha, betas = weights

        def mixture_pdf(pts):
            out = alpha * np.asarray(p0.pdf(pts), dtype=float)
            for k, b in enumerate(betas, start=1):
                if b > 0.0:
                    out = out + b * models[k].pdf(pts)
            return out

        return tv0, tv_quadrature(model.pdf, mixture_pdf, box, nodes=nodes)

    return measure


MEMO_SCHEDULES = {
    "balanced": MixtureSchedule.balanced(6),
    "full_synthetic": MixtureSchedule.full_synthetic(6),
    "all_real": MixtureSchedule.all_real(6),
}


class TestGridMemo:
    @pytest.mark.parametrize("schedule", MEMO_SCHEDULES.values(), ids=MEMO_SCHEDULES)
    def test_each_model_evaluated_once(self, monkeypatch, schedule):
        calls = count_kde_pdf(monkeypatch)
        target_calls = []
        real = Gauss1D.pdf
        monkeypatch.setattr(Gauss1D, "pdf", lambda self, x: target_calls.append(x) or real(self, x))
        run_loop(kde_config(schedule, n=256), 0)
        assert len(calls) == 6
        assert len({id(model) for model, _ in calls}) == 6
        assert len(target_calls) == 1  # p0 too

    @pytest.mark.parametrize("schedule", MEMO_SCHEDULES.values(), ids=MEMO_SCHEDULES)
    def test_records_bit_equal_to_fresh_evaluation(self, monkeypatch, schedule):
        cfg = kde_config(schedule, n=256)
        stored = run_loop(cfg, 0)
        monkeypatch.setattr(KdeGenerator, "measurement", fresh_measurement)
        calls = count_kde_pdf(monkeypatch)
        fresh = run_loop(cfg, 0)
        assert len(calls) > 6  # the oracle re-evaluates kept models
        # exact float equality on every field, TV raw values and tolerances included
        assert stored.records == fresh.records

    @pytest.mark.parametrize(
        "name, kept",
        [
            ("full_synthetic", [0, 1, 1, 1, 1, 1]),
            ("all_real", [0, 1, 1, 1, 1, 1]),
            ("balanced", [0, 1, 2, 3, 4, 5]),
        ],
    )
    def test_values_pruned_with_models(self, monkeypatch, name, kept):
        calls = count_kde_pdf(monkeypatch)
        run_loop(kde_config(MEMO_SCHEDULES[name], n=128), 0)
        # values held from earlier generations when each new model is evaluated
        assert [held for _, held in calls] == kept


class TestGridBuiltOnce:
    @pytest.mark.parametrize("schedule", MEMO_SCHEDULES.values(), ids=MEMO_SCHEDULES)
    def test_one_grid_per_run(self, monkeypatch, schedule):
        grids = []
        real = loop.tv_grid
        monkeypatch.setattr(loop, "tv_grid", lambda *args: grids.append(args) or real(*args))
        run_loop(kde_config(schedule, n=256), 0)
        assert grids == [(GAUSS.support_hint, 4096)]


KDE_RATE_SEEDS_CONFIG = Path(__file__).parent / "configs" / "kde_rate_seeds.ini"


class TestGridPlan:
    """The grid path keeps nothing from one call to the next, so a loop run
    again in the same process gives the same records."""

    def test_balanced_loop_run_twice_gives_equal_records(self):
        cfg = kde_config(MEMO_SCHEDULES["balanced"], n=2048)
        assert run_loop(cfg, 0).records == run_loop(cfg, 0).records

    def test_rate_seeds_config_covers_both_orders_and_window_lengths(self, monkeypatch, tmp_path):
        # the CI runs the same file twice and compares the CSVs
        calls = []  # [model, grid, (ratio, size, order)] per grid pdf
        real_grid_pdf, real_spectra = kernels._grid_pdf, kernels._tap_spectra
        monkeypatch.setattr(
            kernels, "_grid_pdf", lambda model, x: calls.append([model, x]) or real_grid_pdf(model, x)
        )
        monkeypatch.setattr(
            kernels, "_tap_spectra", lambda *a: calls[-1].append(a) or real_spectra(*a)
        )
        cfg = parse_config(KDE_RATE_SEEDS_CONFIG.read_text(), {"out_dir": str(tmp_path)})
        run_scenario(cfg)
        assert [order for _, _, (_, _, order) in calls] == [6] * 10 + [7] * 4
        sizes = [size for _, _, (_, size, _) in calls]
        # each length follows the samples' span, so the run gives many
        assert sizes == [window_rule(model, x).size for model, x, _ in calls]
        assert len(set(sizes)) == 11
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 14


class TestSampleBudgets:
    def test_theory_sized_budget_beats_small_constant(self):
        # at matched generations, the quartic-rule budget (256/generation
        # here) must end closer to the target than a 64-sample budget
        I = 5
        small = LoopConfig(
            generator=KDE,
            schedule=MixtureSchedule.full_synthetic(I),
            p0=GAUSS,
            sample_sizes=ConstantSizes(64),
            max_generation=I,
            replicates=4,
            base_seed=500,
        )
        sized = LoopConfig(
            generator=KDE,
            schedule=MixtureSchedule.full_synthetic(I),
            p0=GAUSS,
            sample_sizes=QuarticSizes(eps=1.0),
            max_generation=I,
            replicates=4,
            base_seed=500,
        )
        _, small_summary = run_replicates(small)
        _, sized_summary = run_replicates(sized)
        assert sized_summary.tv_median[-1] < small_summary.tv_median[-1]


class TestFixedRatioSweep:
    def test_final_tv_rises_then_falls_in_synthetic_ratio(self):
        # fixed real budget, growing synthetic share: the final-generation
        # median first worsens (distribution shift) then recovers (more data)
        n_real = 128
        finals = []
        for lam in (0.25, 1.0, 4.0, 16.0):
            m = int(round(lam * n_real))
            cfg = LoopConfig(
                generator=KDE,
                schedule=MixtureSchedule.fixed_ratio(n_real, m, 5),
                p0=GAUSS,
                sample_sizes=ConstantSizes(n_real + m),
                max_generation=5,
                replicates=6,
                base_seed=3000,
                eval_nodes=2048,
            )
            _, summary = run_replicates(cfg)
            finals.append(summary.tv_median[-1])
        peak = max(finals[1], finals[2])
        assert peak > finals[0]
        assert peak > finals[-1]


class TestDiffusionLoop:
    def test_short_diffusion_loop_records(self):
        gen = DiffusionGenerator(cfg=DiffusionConfig(reverse_steps=60))
        cfg = LoopConfig(
            generator=gen,
            schedule=MixtureSchedule.full_synthetic(2),
            p0=GAUSS,
            sample_sizes=ConstantSizes(300),
            max_generation=2,
            replicates=1,
            base_seed=11,
            eval_samples=4000,
        )
        trace = run_loop(cfg, 0)
        assert len(trace.records) == 2
        for rec in trace.records:
            assert rec.kl_prior is not None and rec.kl_prior >= 0.0
            assert rec.tv_to_p0.method == "histogram"
            assert 0.0 <= rec.tv_to_p0.value <= 1.0
            assert rec.train_diagnostics["steps"] == 18  # ceil(sqrt(300))

    def test_exact_score_matches_dense_loop(self, monkeypatch):
        cfg = LoopConfig(
            generator=DiffusionGenerator(),
            schedule=MixtureSchedule.balanced(3),
            p0=GAUSS,
            sample_sizes=ConstantSizes(128),
            max_generation=3,
            replicates=1,
            base_seed=29,
            eval_samples=500,
        )
        fast = run_loop(cfg, 0)

        def dense_score(net, x, t, horizon):
            return net.features(x, t, horizon) @ net.out_weights.T / net.width

        # the sampler's 1-d tables become (times, horizon) and each lookup is dense
        lookups = []

        def dense_lookup(net, tables, r, x):
            lookups.append(r)
            ts, horizon = tables
            return dense_score(net, x[:, None], ts[r], horizon)[:, 0]

        monkeypatch.setattr(ScoreNet, "evaluate", dense_score)
        monkeypatch.setattr(ScoreNet, "tables_1d", lambda net, ts, horizon: (ts, horizon))
        monkeypatch.setattr(ScoreNet, "lookup_1d", dense_lookup)
        dense = run_loop(cfg, 0)
        # one sampler pass per model serves the nine draws: one TV draw per
        # generation, and models 1 and 2 drawn for generations 2 and 3 in both
        # the training data and the mixture reference
        assert len(lookups) == 3 * DiffusionConfig().reverse_steps
        for f, d in zip(fast.records, dense.records, strict=True):
            assert (f.n_real, f.n_synth) == (d.n_real, d.n_synth)
            gap = abs(f.tv_to_p0.value - d.tv_to_p0.value)
            assert gap <= min(f.tv_to_p0.tolerance, d.tv_to_p0.tolerance)
            assert f.kl_prior == pytest.approx(d.kl_prior, rel=1e-9, abs=0)

    def test_training_failure_names_generation(self):
        gen = DiffusionGenerator(cfg=DiffusionConfig(reverse_steps=60), lr=1e18)
        cfg = LoopConfig(
            generator=gen,
            schedule=MixtureSchedule.full_synthetic(1),
            p0=GAUSS,
            sample_sizes=ConstantSizes(200),
            max_generation=1,
            base_seed=1,
            eval_samples=2000,
        )
        with pytest.raises(LoopError, match="generation 1"):
            run_loop(cfg, 0)


def diffusion_config(schedule, n=64, generations=3, seed=31, eval_samples=300, steps=60):
    return LoopConfig(
        generator=DiffusionGenerator(cfg=DiffusionConfig(reverse_steps=steps)),
        schedule=schedule,
        p0=GAUSS,
        sample_sizes=ConstantSizes(n),
        max_generation=generations,
        base_seed=seed,
        eval_samples=eval_samples,
    )


def count_draws(monkeypatch) -> dict:
    """Record the fitted models, each lockstep pass's net and request count, and
    every ``reverse_sample`` call (a draw the pool did not serve)."""
    seen = {"models": [], "passes": [], "fallbacks": []}
    fit, lockstep, sample = DiffusionGenerator.fit, diffusion._reverse_pass, diffusion.reverse_sample

    def counted_fit(self, data, seed_row):
        out = fit(self, data, seed_row)
        seen["models"].append(out[0])
        return out

    def counted_lockstep(net, cfg, requests):
        seen["passes"].append((id(net), len(requests)))
        return lockstep(net, cfg, requests)

    def counted_sample(score, cfg, n, seed):
        seen["fallbacks"].append((n, seed))
        return sample(score, cfg, n, seed)

    monkeypatch.setattr(DiffusionGenerator, "fit", counted_fit)
    monkeypatch.setattr(diffusion, "_reverse_pass", counted_lockstep)
    monkeypatch.setattr(diffusion, "reverse_sample", counted_sample)
    return seen


PLAN_SCHEDULES = {
    "balanced": MixtureSchedule.balanced(3),
    "full_synthetic": MixtureSchedule.full_synthetic(3),
    "real_each_gen": MixtureSchedule.real_each_gen(0.4, 3),
    "fixed_ratio": MixtureSchedule.fixed_ratio(16, 48, 3),
    # model 1 keeps a zero weight at generation 3: planned draws of 0 points
    "general": MixtureSchedule.general([(0.5, (0.5,)), (0.2, (0.0, 0.8)), (0.1, (0.3, 0.3, 0.3))]),
}


class TestDrawPlan:
    @pytest.mark.parametrize("schedule", PLAN_SCHEDULES.values(), ids=PLAN_SCHEDULES)
    def test_records_equal_unpooled_run(self, monkeypatch, schedule):
        cfg = diffusion_config(schedule, generations=4 if schedule.kind == "general" else 3)
        seen = count_draws(monkeypatch)
        pooled = run_loop(cfg, 0)
        models = seen["models"]
        assert seen["fallbacks"] == []
        assert [net for net, _ in seen["passes"]] == [id(m.net) for m in models]
        assert all(m.pool == {} for m in models)
        served = sum(k for _, k in seen["passes"])

        monkeypatch.setattr(diffusion.DiffusionModel, "serve", lambda self, requests: None)
        seen = count_draws(monkeypatch)
        oracle = run_loop(cfg, 0)
        assert len(seen["fallbacks"]) == served
        # exact float equality on every field, TV raw values and tolerances included
        assert pooled.records == oracle.records

    def test_benchmark_shape_draws_sixteen_times_in_four_passes(self, monkeypatch):
        # the diffusion_balanced workload: balanced over 4 generations, n = 256,
        # 1000 evaluation draws; model 1 is drawn 7 times
        seen = count_draws(monkeypatch)
        run_loop(diffusion_config(MixtureSchedule.balanced(4), n=256, generations=4,
                                  eval_samples=1000, steps=10), 0)
        assert [k for _, k in seen["passes"]] == [7, 5, 3, 1]
        assert [net for net, _ in seen["passes"]] == [id(m.net) for m in seen["models"]]
        assert seen["fallbacks"] == []
        assert all(m.pool == {} for m in seen["models"])


    def test_blow_up_fails_at_first_serve(self, monkeypatch):
        seen = count_draws(monkeypatch)
        fitted = DiffusionGenerator.fit  # the counting wrapper

        def blown_up_fit(self, data, seed_row):
            model, diagnostics, kl_prior = fitted(self, data, seed_row)
            # one unit active right of 0: a chain above 0 blows up
            net = ScoreNet(np.array([[1e20]]), np.array([[1.0]]), np.zeros((1, 8)))
            return diffusion.DiffusionModel(net, model.cfg), diagnostics, kl_prior

        taken = []
        sample = diffusion.DiffusionModel.sample
        monkeypatch.setattr(DiffusionGenerator, "fit", blown_up_fit)
        monkeypatch.setattr(
            diffusion.DiffusionModel, "sample", lambda model, *a: taken.append(a) or sample(model, *a)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite state at reverse step"):
                run_loop(diffusion_config(MixtureSchedule.balanced(3)), 0)
        assert len(seen["models"]) == 1  # generation 1's measure raised, in serve
        assert len(seen["passes"]) == 1 and taken == [] and seen["fallbacks"] == []


CONFIG_2D = Path(__file__).parent / "configs" / "diffusion_gauss2d.ini"


def run_config_2d(monkeypatch, out: Path) -> list:
    """Run the 2-d diffusion config through the CLI into ``out``; return its traces."""
    traces = []

    def recorded(cfg):
        result = run_replicates(cfg)
        traces.extend(result[0])
        return result

    monkeypatch.setattr(loop, "run_replicates", recorded)
    run_scenario(parse_config(CONFIG_2D.read_text(), {"out_dir": str(out)}))
    return traces


class TestDiffusionLoop2d:
    def test_records_equal_unpooled_run(self, monkeypatch, tmp_path):
        # every draw takes the dense (d = 2) score path; the CI runs the same file
        seen = count_draws(monkeypatch)
        pooled = run_config_2d(monkeypatch, tmp_path / "pooled")
        models = seen["models"]
        assert [m.net.dim for m in models] == [2, 2, 2]
        assert seen["fallbacks"] == []
        assert [net for net, _ in seen["passes"]] == [id(m.net) for m in models]
        assert all(m.pool == {} for m in models)
        served = sum(k for _, k in seen["passes"])

        monkeypatch.setattr(diffusion.DiffusionModel, "serve", lambda self, requests: None)
        seen = count_draws(monkeypatch)
        unpooled = run_config_2d(monkeypatch, tmp_path / "unpooled")
        assert len(seen["fallbacks"]) == served
        assert len(pooled) == 1 and len(pooled[0].records) == 3
        assert [t.records for t in pooled] == [t.records for t in unpooled]
        for name in ("results.csv", "bounds.csv"):
            pooled_csv = (tmp_path / "pooled" / name).read_bytes()
            assert pooled_csv == (tmp_path / "unpooled" / name).read_bytes()


CONFIG_1D = Path(__file__).parent / "configs" / "diffusion_1d.ini"


class TestDiffusionLoop1d:
    def test_tabled_runs_repeat_bytes(self, monkeypatch, tmp_path):
        # every draw takes the 1-d tabled path, over a 127-step and a 23-step
        # table block at m = 128; the CI runs the same file twice and compares
        rows = []
        tables_1d = ScoreNet.tables_1d
        monkeypatch.setattr(
            ScoreNet,
            "tables_1d",
            lambda net, ts, horizon: rows.append(len(ts)) or tables_1d(net, ts, horizon),
        )
        for out in ("a", "b"):
            run_scenario(parse_config(CONFIG_1D.read_text(), {"out_dir": str(tmp_path / out)}))
        assert rows and rows == [127, 23] * (len(rows) // 2)
        for name in ("results.csv", "bounds.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSummariesAndRows:
    def test_single_replicate_summary_equals_trace(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(3), n=128)
        traces, summary = run_replicates(cfg)
        assert summary.generations == (1, 2, 3)
        for g in range(3):
            assert summary.tv_median[g] == traces[0].records[g].tv_to_p0.value
            assert summary.tv_q25[g] == summary.tv_q75[g] == summary.tv_median[g]

    def test_summary_deterministic(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(2), n=128, replicates=3)
        _, a = run_replicates(cfg)
        _, b = run_replicates(cfg)
        assert a == b

    def test_trace_rows_schema(self):
        cfg = kde_config(MixtureSchedule.full_synthetic(2), n=128)
        rows = trace_rows(run_loop(cfg, 0), "unit")
        assert len(rows) == 2
        assert list(rows[0]) == [
            "scenario",
            "replicate",
            "generation",
            "n_total",
            "n_real",
            "tv_est",
            "tv_method",
            "tv_tol",
            "bound_value",
            "kl_prior",
            "seed",
        ]
        assert rows[0]["kl_prior"] == ""  # kernel generator carries no prior term
        assert rows[1]["generation"] == 2
