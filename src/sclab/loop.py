"""The self-consuming training loop.

Model 1 trains on real data only. Each later generation draws its training
set from the scheduled mixture of the real density and previously trained
models, trains a fresh model from scratch, and records the measured distance
to the real density alongside the matching closed-form bound. Synthetic
draws always come from the stored generator objects, never from cached
sample files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from . import bounds, diffusion, kernels
from .distributions import TargetDensity
from .divergences import MIN_NODES, TVEstimate, tv_grid, tv_histogram, tv_on_grid
from .kernels import KdeModel, KernelSpec
from .mixing import MixtureSchedule, sample_mixture


class LoopError(RuntimeError):
    """Generator training failure, annotated with the failing generation."""


@dataclass(frozen=True)
class KdeGenerator:
    """Kernel density estimate at the kernel's own balancing bandwidth.

    Measures TV by quadrature on the target's box; bounds with the ``kde``
    family at smoothness order ``kernel.order``.
    """

    kernel: KernelSpec
    family: ClassVar[str] = "kde"

    def __post_init__(self):
        # each later generation draws from the fitted estimates
        if not self.kernel.nonneg:
            raise kernels.SignedKernelError(
                "the loop cannot draw from a signed (higher-order) kernel estimate"
            )

    def fit(self, data, seed_row) -> tuple[KdeModel, dict, None]:
        model = kernels.fit(data, self.kernel)
        return model, {"bandwidth": model.bandwidth}, None

    def measurement(self, cfg: "LoopConfig", seeds):
        """Per-run TV to p0 and to the previous mixture on one quadrature grid
        (``tv_grid`` of the target's box at ``eval_nodes`` nodes), built once,
        with p0 and each kept model evaluated on it once; the replicate's
        ``seeds`` are not needed."""
        axes, pts = tv_grid(cfg.p0.support_hint, cfg.eval_nodes)
        target = np.asarray(cfg.p0.pdf(pts), dtype=float)
        values: dict[int, np.ndarray] = {}  # kept models' pdf on the grid, by model index

        def measure(g, model, weights, models):
            for k in values.keys() - models.keys():
                del values[k]
            values[g] = model.pdf(pts)
            tv0 = tv_on_grid(values[g], target, axes)
            if g == 1:
                return tv0, tv0
            alpha, betas = weights
            mixture = alpha * target
            for k, b in enumerate(betas, start=1):
                if b > 0.0:
                    mixture = mixture + b * values[k]
            return tv0, tv_on_grid(values[g], mixture, axes)

        return measure

    def bound_inputs(self, n, d: int, delta: float, kl_terms=None) -> bounds.BoundInputs:
        return bounds.BoundInputs(n=n, d=d, delta=delta, s=self.kernel.order)


@dataclass(frozen=True)
class DiffusionGenerator:
    """Random-feature score net trained by gradient descent, sampled by the
    reverse SDE.

    Measures TV by histograms of reverse-SDE draws; bounds with the
    ``diffusion`` family, each generation's prior-mismatch KL included.
    """

    cfg: diffusion.DiffusionConfig = field(default_factory=diffusion.DiffusionConfig)
    width_factor: float = 1.0  # network width = ceil(factor * n)
    tau_factor: float = 1.0  # descent steps = ceil(factor * sqrt(n))
    lr: float | None = None  # None: 1 / top-eigenvalue estimate
    family: ClassVar[str] = "diffusion"

    def fit(self, data, seed_row) -> tuple[diffusion.DiffusionModel, dict, float]:
        """Train a fresh net with the init and train seeds of ``seed_row``."""
        width = max(1, math.ceil(self.width_factor * data.n))
        tau = math.ceil(self.tau_factor * math.sqrt(data.n))
        net = diffusion.init_scorenet(width, data.dim, self.cfg.embed_dim, int(seed_row[1]))
        report = diffusion.train(
            net, data, self.cfg, lr=self.lr, tau_steps=tau, seed=int(seed_row[2])
        )
        diagnostics = {
            "steps": report.steps_run,
            "final_loss": report.losses[-1],
            "rkhs_norm": report.rkhs_norm,
            "lr": report.lr,
        }
        kl_prior = sum(
            diffusion.prior_kl_gauss(float(col.mean()), max(float(col.std()), 1e-12), self.cfg)
            for col in data.points.T
        )
        return diffusion.DiffusionModel(net, self.cfg), diagnostics, kl_prior

    def measurement(self, cfg: "LoopConfig", seeds):
        """Per-run TV by histograms: each model's draw against one reference
        draw of p0, and against a draw of the previous mixture.

        Every reverse-SDE draw of the replicate (seed block ``seeds``) is
        planned here, so each model serves all of its draws from one batched
        pass, run when it is first measured, before any of them is drawn: its
        TV draw and its share of every later training and reference mixture.
        The plan replays those ``sample_mixture`` calls with recording
        components, which draws the real component a second time (a few
        hundred normals per generation).
        """
        p0, box, n = cfg.p0, cfg.p0.support_hint, cfg.eval_samples
        ref_seed, tv_seeds, mix_seeds = _eval_seeds(cfg.base_seed, cfg.max_generation)
        ref = p0.sample(n, ref_seed)
        plan = _plan_draws(cfg, seeds, tv_seeds, mix_seeds)

        def measure(g, model, weights, models):
            model.serve(plan.pop(g))
            model_pts = model.sample(n, tv_seeds[g])
            tv0 = tv_histogram(model_pts, ref, box=box)
            if g == 1:
                return tv0, tv0
            mix_pts = sample_mixture(p0, _draws(models, g), weights, n, mix_seeds[g])
            return tv0, tv_histogram(model_pts, mix_pts, box=box)

        return measure

    def bound_inputs(self, n, d: int, delta: float, kl_terms=None) -> bounds.BoundInputs:
        return bounds.BoundInputs(n=n, d=d, delta=delta, kl_terms=kl_terms)


Generator = Union[KdeGenerator, DiffusionGenerator]


@dataclass(frozen=True)
class ConstantSizes:
    n: int

    def resolve(self, generations: int, dim: int) -> tuple[int, ...]:
        return (self.n,) * generations


@dataclass(frozen=True)
class ExplicitSizes:
    values: tuple[int, ...]

    def resolve(self, generations: int, dim: int) -> tuple[int, ...]:
        if len(self.values) != generations:
            raise ValueError(
                f"need {generations} sample counts, got {len(self.values)}"
            )
        return tuple(int(v) for v in self.values)


@dataclass(frozen=True)
class QuarticSizes:
    """Uniform counts sized for the fully synthetic cycle at error order eps."""

    eps: float

    def resolve(self, generations: int, dim: int) -> tuple[int, ...]:
        n = bounds.required_samples_quartic(max(1, generations - 1), dim, self.eps)
        return (n,) * generations


@dataclass(frozen=True)
class BalancedSizes:
    """Front-loaded counts sized for the uniform-mixture cycle at error order eps."""

    eps: float

    def resolve(self, generations: int, dim: int) -> tuple[int, ...]:
        full = bounds.required_samples_balanced(max(1, generations - 1), dim, self.eps)
        return full[:generations]


SizeRule = Union[ConstantSizes, ExplicitSizes, QuarticSizes, BalancedSizes]


@dataclass(frozen=True)
class LoopConfig:
    generator: Generator
    schedule: MixtureSchedule
    p0: TargetDensity
    sample_sizes: SizeRule
    max_generation: int
    replicates: int = 1
    base_seed: int = 0
    delta: float = 0.1  # confidence level fed to the bound evaluators
    eval_nodes: int = 4096  # quadrature grid per dim (kernel generator)
    eval_samples: int = 100_000  # histogram draw size (diffusion generator)

    def __post_init__(self):
        if self.max_generation < 1:
            raise ValueError("max_generation must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.eval_nodes < MIN_NODES:
            raise ValueError(f"eval_nodes must be >= {MIN_NODES}")
        if self.schedule.max_generation < self.max_generation - 1:
            raise ValueError(
                "schedule must define rows up to max_generation - 1"
            )
        sizes = self.sample_sizes.resolve(self.max_generation, self.p0.dim)
        if any(v < 1 for v in sizes):
            raise ValueError("every resolved sample count must be >= 1")

    def resolved_sizes(self) -> tuple[int, ...]:
        return self.sample_sizes.resolve(self.max_generation, self.p0.dim)


@dataclass(frozen=True)
class GenerationRecord:
    i: int  # model index, 1-based; model 1 trains on real data only
    n_total: int
    n_real: int
    n_synth: tuple[int, ...]  # draws taken from each earlier model
    tv_to_p0: TVEstimate
    tv_to_prev_mixture: TVEstimate
    bound_value: float
    kl_prior: float | None  # diffusion generator only
    train_diagnostics: dict
    seed: int  # draw seed for this generation's training set

    def __post_init__(self):
        if self.n_real + sum(self.n_synth) != self.n_total:
            raise ValueError("per-source counts must sum to the total draw")


@dataclass(frozen=True)
class LoopTrace:
    config: LoopConfig
    replicate: int
    replicate_seed: int
    records: tuple[GenerationRecord, ...]


def _gen_seeds(replicate_seed: int, generations: int) -> np.ndarray:
    """Fixed-order per-generation seed block: draw / net-init / train columns."""
    root = np.random.default_rng(replicate_seed)
    return root.integers(0, 2**63, size=(generations, 3))


def _eval_seeds(base_seed: int, generations: int) -> tuple[int, list[int], list[int]]:
    """Measurement seeds, disjoint from every training stream by construction:
    ``(ref, tv, mix)``, seeding the reference draw of p0, model g's TV draw
    (``tv[g]``) and generation g's mixture draw (``mix[g]``)."""
    root = np.random.default_rng([base_seed, 0xE7A1])
    seeds = [int(s) for s in root.integers(0, 2**63, size=(2 * generations + 1,))]
    return seeds[0], seeds[: generations + 1], seeds[generations:]


def _sources(schedule: MixtureSchedule, g: int) -> range:
    """The earlier models generation g >= 2 may draw from: all of them when
    the schedule needs the history, else only model g - 1."""
    return range(1, g) if schedule.needs_history else range(g - 1, g)


def _plan_draws(cfg: LoopConfig, seeds: np.ndarray, tv_seeds: list, mix_seeds: list) -> dict:
    """Every ``(n, seed)`` reverse-SDE draw of a diffusion replicate, by model.

    Model g is drawn once for its TV to p0, and by each later generation's
    training mixture and reference mixture that may draw from it
    (``_sources``, as in ``run_loop``). Each mixture is replayed with
    recording components: the labels and seeds depend only on the mixture's
    own seed, not on the points drawn.
    """
    n_eval, last = cfg.eval_samples, cfg.max_generation
    plan = {g: [(n_eval, tv_seeds[g])] for g in range(1, last + 1)}

    def recorder(k):
        def draw(c, rng):
            plan[k].append((c, diffusion.draw_seed(rng)))
            return np.zeros((c, cfg.p0.dim))

        return draw

    sizes = cfg.resolved_sizes()
    for g in range(2, last + 1):
        components = [recorder(k) if k in _sources(cfg.schedule, g) else None for k in range(1, g)]
        weights = cfg.schedule.weights_at(g - 1)
        sample_mixture(cfg.p0, components, weights, sizes[g - 1], int(seeds[g - 1, 0]))
        sample_mixture(cfg.p0, components, weights, n_eval, mix_seeds[g])
    return plan


def _draws(models: dict, g: int) -> list:
    """Mixture components for models 1..g-1; pruned models carry no sampler."""
    return [models[k].draw if k in models else None for k in range(1, g)]


def run_loop(cfg: LoopConfig, replicate: int = 0) -> LoopTrace:
    """Run one replicate of the loop and return its per-generation records."""
    gen = cfg.generator
    p0 = cfg.p0
    sizes = cfg.resolved_sizes()
    replicate_seed = cfg.base_seed + replicate
    seeds = _gen_seeds(replicate_seed, cfg.max_generation)
    measure = gen.measurement(cfg, seeds)
    models: dict = {}  # retained fitted models, keyed by model index
    records: list[GenerationRecord] = []
    kl_history: list[float] = []

    for g in range(1, cfg.max_generation + 1):
        n_g = sizes[g - 1]
        draw_seed = int(seeds[g - 1, 0])
        if g == 1:
            data = p0.sample(n_g, draw_seed)
            counts = np.array([n_g])
            weights = (1.0, ())
        else:
            weights = cfg.schedule.weights_at(g - 1)
            data, counts = sample_mixture(
                p0, _draws(models, g), weights, n_g, draw_seed, return_counts=True
            )

        try:
            model, diagnostics, kl_prior = gen.fit(data, seeds[g - 1])
        except diffusion.TrainingDivergence as exc:
            raise LoopError(f"generation {g}: {exc}") from exc
        if kl_prior is not None:
            kl_history.append(kl_prior)
        tv0, tv_prev = measure(g, model, weights, models)
        inputs = gen.bound_inputs(sizes[:g], p0.dim, cfg.delta, tuple(kl_history))
        # bound_<family> is read from the module at each call, so perfbench's tracer sees it
        bound_value = getattr(bounds, f"bound_{gen.family}")(cfg.schedule, inputs)

        records.append(
            GenerationRecord(
                i=g,
                n_total=n_g,
                n_real=int(counts[0]),
                n_synth=tuple(int(c) for c in counts[1:]),
                tv_to_p0=tv0,
                tv_to_prev_mixture=tv_prev,
                bound_value=bound_value,
                kl_prior=kl_prior,
                train_diagnostics=diagnostics,
                seed=draw_seed,
            )
        )

        models[g] = model
        models = {k: models[k] for k in _sources(cfg.schedule, g + 1)}

    return LoopTrace(
        config=cfg,
        replicate=replicate,
        replicate_seed=replicate_seed,
        records=tuple(records),
    )


@dataclass(frozen=True)
class LoopSummary:
    """Per-generation spread of the measured distance across replicates."""

    generations: tuple[int, ...]
    tv_median: tuple[float, ...]
    tv_q25: tuple[float, ...]
    tv_q75: tuple[float, ...]


def run_replicates(cfg: LoopConfig) -> tuple[list[LoopTrace], LoopSummary]:
    """Run every replicate (seed = base_seed + r) and summarize the TV traces."""
    traces = [run_loop(cfg, r) for r in range(cfg.replicates)]
    gens = tuple(range(1, cfg.max_generation + 1))
    by_gen = np.array(
        [[t.records[g - 1].tv_to_p0.value for t in traces] for g in gens]
    )
    return traces, LoopSummary(
        generations=gens,
        tv_median=tuple(float(v) for v in np.median(by_gen, axis=1)),
        tv_q25=tuple(float(v) for v in np.percentile(by_gen, 25, axis=1)),
        tv_q75=tuple(float(v) for v in np.percentile(by_gen, 75, axis=1)),
    )


def trace_rows(trace: LoopTrace, scenario: str) -> list[dict]:
    """One CSV-ready row per generation record (schema fixed by the CLI)."""
    rows = []
    for rec in trace.records:
        rows.append(
            {
                "scenario": scenario,
                "replicate": trace.replicate,
                "generation": rec.i,
                "n_total": rec.n_total,
                "n_real": rec.n_real,
                "tv_est": rec.tv_to_p0.value,
                "tv_method": rec.tv_to_p0.method,
                "tv_tol": rec.tv_to_p0.tolerance,
                "bound_value": rec.bound_value,
                "kl_prior": "" if rec.kl_prior is None else rec.kl_prior,
                "seed": rec.seed,
            }
        )
    return rows
