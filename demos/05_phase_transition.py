"""The synthetic-data phase transition.

With the real-sample budget n fixed and synthetic draws m = lambda * n added
per generation, the bound factor f(lambda, i) first rises (distribution
shift dominates) and then falls (statistical error relief wins). With
u = lambda/(1+lambda), the peak lambda* is the one root of the first-order
condition 3*(1 + u + ... + u^i) = 4*(i+1)*u^i; it grows with the generation
count, like 1.8175*(i+1) for large i.
"""

import numpy as np

from sclab.bounds import f_lambda, lambda_star

print("f(lambda, i) on a coarse grid (rows: i, columns: lambda)")
lams = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
header = "  i |" + "".join(f" {x:7.1f}" for x in lams)
print(header)
print("  " + "-" * (len(header) - 2))
for i in range(1, 7):
    row = "".join(f" {f_lambda(x, i):7.3f}" for x in lams)
    print(f"  {i} |{row}")

print("\npeak location lambda*(i), the root of the first-order condition:")
for i in range(1, 7):
    star = lambda_star(i)
    print(f"  i = {i}: lambda* = {star:9.6f}   "
          f"f at 0.9x / 1x / 1.1x: "
          f"{f_lambda(0.9 * star, i):.5f} < {f_lambda(star, i):.5f} > "
          f"{f_lambda(1.1 * star, i):.5f}")

print("\nlarge-lambda asymptote (i+1)(1+lambda)^(-1/4): at lambda = 1e6, i = 3,")
print(f"  f = {f_lambda(1e6, 3):.6f} vs asymptote {4 * (1 + 1e6) ** -0.25:.6f}")
