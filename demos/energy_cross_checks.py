#!/usr/bin/env python3
"""Five independent routes to the same dipole ground-state energy.

For the single-atom measure (omega=1, W=3) the ground energy of
(1/2) A(0)^2 + H_f is exactly 1/2: the shifted-oscillator value
(sqrt(omega^2 + W) - omega)/2.  This script evaluates it through every
pipeline in the package and prints the spread; the truncated-Fock route is
the ground state of the dipole fiber on one ``build_basis`` object.
"""

import numpy as np

from pfwcl.energy import ground_energy, log_spectral_energy
from pfwcl.fockdesk import bogoliubov_energy, build_basis, fiber_hamiltonian, ground_state
from pfwcl.formfactor import PointMasses, RadialMeasure
from pfwcl.wienerhopf import log_det

atom = (1.0, 3.0)
measure = RadialMeasure(3, PointMasses([atom]))

print("single-atom measure omega=1, W=3; exact ground energy = 0.5\n")

routes = {}

res = ground_energy(measure)
routes["G-function quadrature"] = res.calE
routes["log-spectral / 2"] = 0.5 * log_spectral_energy(measure, 1.0)
routes["Bogoliubov closed form"] = bogoliubov_energy([atom])

basis = build_basis([atom + (0.0,)], 60)
routes["truncated Fock (N_tot=60)"] = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]

routes["(1/2T) log det, T=40"] = log_det(measure, 1.0, 40.0) / 80.0

width = max(len(k) for k in routes)
for name, value in routes.items():
    print(f"  {name:<{width}} : {value:.12f}   (error {value - 0.5:+.3e})")

values = np.array(list(routes.values()))
print(f"\nspread across routes: {values.max() - values.min():.3e}")
print("(the finite-T determinant route carries the expected O(1/T) offset)")
