"""Training-mixture weight schedules and exact categorical mixture sampling.

A schedule defines, for every generation i >= 1, the simplex row
(alpha_i, beta_i^1 .. beta_i^i): the share of fresh real data and the share
of samples drawn from each previously trained model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import SampleSet, TargetDensity

SIMPLEX_TOL = 1e-12

_KINDS = ("general", "full_synthetic", "balanced", "fixed_ratio", "real_each_gen")
# the parameter fields each kind reads; a kind refuses every other one that is set
_FIELDS = {"general": ("rows",), "fixed_ratio": ("n_real", "m_synth"), "real_each_gen": ("alpha",)}

Row = tuple[float, tuple[float, ...]]
Sampler = Callable[[int, np.random.Generator], np.ndarray]


def _check_row(i: int, alpha: float, betas: Sequence[float]) -> Row:
    betas = tuple(float(b) for b in betas)
    if len(betas) != i:
        raise ValueError(
            f"generation {i}: expected {i} synthetic weights, got {len(betas)}"
        )
    if alpha < 0 or any(b < 0 for b in betas):
        raise ValueError(f"generation {i}: weights must be nonnegative")
    total = alpha + sum(betas)
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"generation {i}: weights sum to {total!r}, expected 1")
    return (float(alpha), betas)


@dataclass(frozen=True)
class MixtureSchedule:
    """Weight rows for every generation of a self-consuming run."""

    kind: str
    max_generation: int
    rows: tuple[Row, ...] | None = None  # general only
    n_real: int | None = None  # fixed_ratio
    m_synth: int | None = None  # fixed_ratio
    alpha: float | None = None  # real_each_gen

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.max_generation < 1:
            raise ValueError("max_generation must be >= 1")
        for name in ("rows", "n_real", "m_synth", "alpha"):
            if getattr(self, name) is not None and name not in _FIELDS.get(self.kind, ()):
                raise ValueError(f"{self.kind} schedule takes no {name}")
        if self.kind == "general":
            if self.rows is None or len(self.rows) != self.max_generation:
                raise ValueError("general schedule needs one row per generation")
            checked = tuple(
                _check_row(i, alpha, betas)
                for i, (alpha, betas) in enumerate(self.rows, start=1)
            )
            object.__setattr__(self, "rows", checked)
        elif self.kind == "fixed_ratio":
            if self.n_real is None or self.m_synth is None:
                raise ValueError("fixed_ratio schedule needs n_real and m_synth")
            if self.n_real < 0 or self.m_synth < 0 or self.n_real + self.m_synth == 0:
                raise ValueError("fixed_ratio counts must be nonnegative, not both zero")
        elif self.kind == "real_each_gen":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise ValueError("real_each_gen needs alpha in (0, 1]")

    @classmethod
    def general(cls, rows: Sequence[tuple[float, Sequence[float]]]) -> "MixtureSchedule":
        return cls(
            kind="general",
            max_generation=len(rows),
            rows=tuple((a, tuple(b)) for a, b in rows),
        )

    @classmethod
    def full_synthetic(cls, max_generation: int) -> "MixtureSchedule":
        return cls(kind="full_synthetic", max_generation=max_generation)

    @classmethod
    def balanced(cls, max_generation: int) -> "MixtureSchedule":
        return cls(kind="balanced", max_generation=max_generation)

    @classmethod
    def fixed_ratio(cls, n_real: int, m_synth: int, max_generation: int) -> "MixtureSchedule":
        return cls(
            kind="fixed_ratio",
            max_generation=max_generation,
            n_real=n_real,
            m_synth=m_synth,
        )

    @classmethod
    def real_each_gen(cls, alpha: float, max_generation: int) -> "MixtureSchedule":
        return cls(kind="real_each_gen", max_generation=max_generation, alpha=alpha)

    @classmethod
    def all_real(cls, max_generation: int) -> "MixtureSchedule":
        """Control schedule: every generation retrains on fresh real data only."""
        return cls.real_each_gen(1.0, max_generation)

    @property
    def needs_history(self) -> bool:
        """Whether rows can reference models older than the latest one."""
        return self.kind in ("general", "balanced")

    def weights_at(self, i: int) -> Row:
        """Simplex row (alpha_i, betas) for generation ``i``, 1-based."""
        if not 1 <= i <= self.max_generation:
            raise ValueError(
                f"generation {i} outside schedule range 1..{self.max_generation}"
            )
        if self.kind == "general":
            return self.rows[i - 1]
        if self.kind == "full_synthetic":
            return (0.0, tuple(0.0 for _ in range(i - 1)) + (1.0,))
        if self.kind == "balanced":
            w = 1.0 / (i + 1)
            return (w, (w,) * i)
        if self.kind == "fixed_ratio":
            total = self.n_real + self.m_synth
            rho = self.m_synth / total
            return (self.n_real / total, tuple(0.0 for _ in range(i - 1)) + (rho,))
        # real_each_gen
        return (self.alpha, tuple(0.0 for _ in range(i - 1)) + (1.0 - self.alpha,))


def sample_mixture(
    real_density: TargetDensity,
    components: Sequence[Sampler | None],
    weights: Row,
    n: int,
    seed: int,
    return_counts: bool = False,
):
    """Draw ``n`` points: pick a source by the weight row, then draw from it.

    ``components[k]`` samples from the model carrying weight ``betas[k]``; a
    ``None`` entry is allowed only when its weight is zero (pruned history).
    Returns a SampleSet, plus the per-source counts (real first) when
    ``return_counts`` is set.
    """
    alpha, betas = _check_row(len(components), weights[0], weights[1])
    rng = np.random.default_rng(seed)
    probs = np.array([alpha, *betas])
    probs = probs / probs.sum()  # remove residual 1e-13-level round-off
    labels = rng.choice(len(probs), size=n, p=probs)
    counts = np.bincount(labels, minlength=len(probs))
    dim = real_density.dim
    points = np.empty((n, dim))
    for label in range(len(probs)):
        c = int(counts[label])
        if label == 0:
            drawn = real_density.draw(c, rng)
        else:
            sampler = components[label - 1]
            if sampler is None:
                if c > 0:
                    raise ValueError(
                        f"component {label} selected {c} times but has no sampler"
                    )
                drawn = np.empty((0, dim))
            else:
                drawn = np.asarray(sampler(c, rng), dtype=float)
        if drawn.ndim == 1:
            drawn = drawn[:, None]
        if drawn.shape != (c, dim):
            raise ValueError(
                f"component {label} returned shape {drawn.shape}, expected ({c}, {dim})"
            )
        points[labels == label] = drawn
    out = SampleSet(points, seed)
    if return_counts:
        return out, counts
    return out

