#!/usr/bin/env python3
"""Ultraviolet-cutoff dependence of the d=3 sharp-cutoff ground energy.

E(Lambda) interpolates between pi * Lambda^2 (small cutoff) and
Lambda^{3/2} growth with E/Lambda^{3/2} inside [sqrt(2 pi/3), sqrt(2 pi)].
The split at u = Lambda^{-1/4} isolates the piece I1 that carries the
growth; I2/sqrt(Lambda) dies out.
"""

import math

from pfwcl.cutoff import cutoff_energy_3d, cutoff_split_I1_I2

lo, hi = math.sqrt(2 * math.pi / 3), math.sqrt(2 * math.pi)
print(f"bracket for E/Lambda^(3/2): [{lo:.5f}, {hi:.5f}]\n")
print(f"{'Lambda':>10} {'E(Lambda)':>16} {'E/L^2':>10} {'E/L^1.5':>10} "
      f"{'I1/sqrt(L)':>11} {'I2/sqrt(L)':>11}")

for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8):
    e = cutoff_energy_3d(lam)
    cells = [f"{lam:10.0e}", f"{e:16.6e}", f"{e / lam**2:10.4f}",
             f"{e / lam**1.5:10.5f}"]
    if lam > 1.0:
        i1, i2 = cutoff_split_I1_I2(lam)
        cells += [f"{i1 / math.sqrt(lam):11.5f}", f"{i2 / math.sqrt(lam):11.5f}"]
    print(" ".join(cells))

print(f"\nsmall-cutoff check: E/Lambda^2 -> pi = {math.pi:.6f}")
print("large-cutoff ratio settles near the upper bracket end.")
