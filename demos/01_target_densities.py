"""Target densities: exact pdfs, exact samplers, and closed-form divergences.

Every downstream measurement in this package is scored against one of these
analytic targets, so this demo doubles as a tour of the oracle layer.
"""

import numpy as np

from sclab.distributions import (
    Gauss1D,
    Gauss2D,
    GaussMixture1D,
    analytic_tv_gauss1d,
    kl_gauss1d,
)

standard = Gauss1D(0, 1)
shifted = Gauss1D(1, 1)
wide = Gauss1D(0, 2)

print("pdf of N(0,1) at 0:", standard.pdf(0.0))

s = standard.sample(100_000, seed=7)
print(f"100k draws: mean {s.points.mean():+.4f}, std {s.points.std():.4f}")
print("replaying the same seed is bit-identical:",
      np.array_equal(s.points, standard.sample(100_000, seed=7).points))

print("\nclosed-form distances")
print("  TV(N(0,1), N(1,1))  =", analytic_tv_gauss1d(standard, shifted))
print("  TV(N(0,1), N(0,2))  =", analytic_tv_gauss1d(standard, wide), "(two crossings)")
print("  KL(N(0.5,1)||N(0,1)) =", kl_gauss1d(Gauss1D(0.5, 1), standard))

mix = GaussMixture1D(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)))
m = mix.sample(100_000, seed=7)
print(f"\nbimodal mixture: sample mean {m.points.mean():+.4f} (exact {mix.mean_value()})")
print("truncation box used for quadrature:", mix.support_hint)

plane = Gauss2D((1.0, -2.0), (4.0, 0.25))
p = plane.sample(50_000, seed=3)
print("\n2-d diagonal Gaussian: sample means", p.points.mean(axis=0),
      "variances", p.points.var(axis=0))
