#!/usr/bin/env python3
"""Weak-coupling behavior of the truncated two-mode fiber Hamiltonian.

Modes (omega, W, q) = (1, 1, +0.6) and (2, 2, -0.6), giving the discrete
effective mass m_eff = 1 + 1 + 1/2 = 2.5.  Along kappa = 1, 2, 4, 8:

- the full (eps=1) gap E_kappa(p) - E_kappa(0) drifts monotonically toward
  its weak-coupling limit, 0.013339 at p = 0.2, with an O(kappa^-2) approach.
  p^2/(2 m_eff) = 0.008 is the limit of the eps=0 gap, not of this one, so
  |gap - p^2/(2 m_eff)| levels off near 5.3e-3 instead of shrinking to 0;
- the dipole (eps=0) gap is kappa-independent: the dressing identity turns
  the momentum coupling into the pure mass term p^2/(2 m_eff);
- the semigroup distance to P_g exp(-T (p - P_f)^2 / (2 m_eff)) shrinks along
  these rungs and levels off near 0.033 at larger kappa.

One ``build_basis`` call gives the basis with its operators.  The full
coupling scan takes the horizon T = 1, so its rows also carry the semigroup
residual, taken from each row's own E_p: one ground-state solve (P_g's) beyond
the scan's.  Smaller N_tot keeps this demo quick; the acceptance suite runs dim 1953.
"""

from pfwcl.fockdesk import build_basis, wcl_scan

modes = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]
basis = build_basis(modes, 30)
print(f"basis dimension {basis.dim}, m_eff_disc = {basis.m_eff()}\n")

p = 0.2
target = p * p / (2.0 * basis.m_eff())
print(f"full coupling (eps=1), p={p}; gap target p^2/(2 m_eff) = {target}")
full = wcl_scan(basis, [1.0, 2.0, 4.0, 8.0], [p], 1.0, T=1.0)
for row in full:
    print(f"  kappa={row['kappa']:3.0f}: gap={row['gap']:.8f} "
          f"|gap-target|={abs(row['gap_dev']):.2e}  E0_dev={row['E0_dev']:+.2e}")

print(f"\ndipole limit (eps=0): gap should not move with kappa")
for row in wcl_scan(basis, [1.0, 4.0], [p], 0.0):
    print(f"  kappa={row['kappa']:3.0f}: gap={row['gap']:.12f}")

print("\nsemigroup residual at T=1 (operator norm):")
for row in full:
    print(f"  kappa={row['kappa']:3.0f}: {row['semigroup_res']:.4f}")
