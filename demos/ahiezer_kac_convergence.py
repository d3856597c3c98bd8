#!/usr/bin/env python3
"""Ahiezer-Kac convergence of the truncated Wiener-Hopf determinant.

Two limits as the horizon T grows, both at kappa = 1:

    (1/T) log det(1 + C_T)        ->  (1/2 pi) int log(1 + rho_hat)
    (1/T) <1, (1 + C_T)^{-1} 1>   ->  1 / m_eff

The single-atom kernel makes both targets exact rationals: 1 and 1/4.
A Gaussian continuum measure follows for comparison.
"""

from pfwcl.formfactor import GaussianProfile, PointMasses, RadialMeasure
from pfwcl.wienerhopf import ak_convergence_report

atom = RadialMeasure(3, PointMasses([(1.0, 3.0)]))
print("point mass (omega=1, W=3), kappa=1: targets 1.0 and 0.25")
print(f"{'T':>5} {'logdet/T':>12} {'ak dev':>11} {'T ak dev':>10} {'mass fn':>10} {'mass dev':>11}")
for row in ak_convergence_report(atom, 1.0, [5.0, 10.0, 20.0, 40.0]):
    print(f"{row['T']:5.0f} {row['logdet_per_T']:12.6f} {row['ak_dev']:11.2e} "
          f"{row['T'] * row['ak_dev']:10.6f} {row['mass_fn']:10.6f} {row['mass_dev']:11.2e}")
print(f"constant term B = {row['ak_B']:.6f} = log(9/8): T ak_dev -> B")

print("\ngaussian profile sigma=1, d=3, kappa=1:")
gauss = RadialMeasure(3, GaussianProfile(1.0))
for row in ak_convergence_report(gauss, 1.0, [5.0, 10.0, 20.0, 1e3]):
    print(f"T={row['T']:6.0f}  logdet/T={row['logdet_per_T']:.6f}  "
          f"target={row['ak_target']:.6f}  rel dev={abs(row['ak_dev'])/row['ak_target']:.3%}")
print(f"({row['n']} states realize the kernel; truncation bound on logdet/T "
      f"{row['disc_err']:.1e})")

print("\nboth deviation columns shrink like O(1/T): the first-order")
print("asymptotics of the determinant and the mass functional.")
