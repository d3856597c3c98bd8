"""The library checks its run parameters with the driver's rules (``pfwcl.params``).

Each entry point refuses what ``pfwcl`` refuses for the same parameter, with a
ValueError that names the argument: no bare OverflowError or TypeError, no
``inf`` returned, and no numpy warning before the refusal.
"""

import math
import re

import pytest

from pfwcl import wienerhopf
from pfwcl.cutoff import cutoff_energy_3d
from pfwcl.energy import SpectralFunctions, dipole_dispersion, log_spectral_energy
from pfwcl.fockdesk import (bogoliubov_energy, build_basis, fiber_hamiltonian,
                            semigroup_wcl_residual, wcl_scan)
from pfwcl.formfactor import PointMasses, RadialMeasure

#: the weakly coupled atom (omega, W) = (1000, 1e-3)
WEAK_ATOM = RadialMeasure(3, PointMasses([(1000.0, 1e-3)]))
BASIS = build_basis([(1.0, 1.0, 0.5)], 2)

CALLS = {
    # kappa^2 overflowed in the Hamiltonian's parts: a bare OverflowError
    "fiber_hamiltonian_kappa_1e160": (lambda: fiber_hamiltonian(BASIS, 1e160, 0.0, 1.0),
                                      "kappa: kappa^2 must be finite, got 1e+160"),
    "semigroup_kappa_1e160": (lambda: semigroup_wcl_residual(BASIS, 1e160, 0.1, 1.0),
                              "kappa: kappa^2 must be finite, got 1e+160"),
    "spectral_functions_kappa_1e200": (lambda: SpectralFunctions(WEAK_ATOM, 1e200),
                                       "kappa: kappa^2 must be finite, got 1e+200"),
    # returned inf
    "log_det_kappa_1e200": (lambda: wienerhopf.log_det(WEAK_ATOM, 1e200, 1.0),
                            "kappa: kappa^2 must be finite, got 1e+200"),
    "log_det_S_inf": (lambda: wienerhopf.log_det(WEAK_ATOM, 1e154, 1e10),
                      "kappa^2 T must be a finite double, got kappa = 1e+154, T = 10000000000.0"),
    "dispersion_p_squared_inf": (lambda: dipole_dispersion(WEAK_ATOM, 1.0, 1e200),
                                 "p: p^2 must be finite, got 1e+200"),
    # a bare TypeError from math.comb
    "build_basis_ntot_2.5": (lambda: build_basis([(1.0, 1.0, 0.5)], 2.5),
                             "n_tot: must be an integer, got 2.5"),
    # accepted: A -> -A maps kappa to -kappa
    "fiber_hamiltonian_kappa_negative": (lambda: fiber_hamiltonian(BASIS, -1.0, 0.0, 1.0),
                                         "kappa: must be >= 0, got -1.0"),
    "fiber_hamiltonian_eps": (lambda: fiber_hamiltonian(BASIS, 1.0, 0.0, 1.5),
                              "eps: must lie in [0, 1], got 1.5"),
    "build_basis_no_modes": (lambda: build_basis([], 2), "modes: must not be empty"),
    "bogoliubov_energy_mode": (lambda: bogoliubov_energy([(1e-200, 1.0)]),
                               "modes: a mode needs omega > 0, W >= 0 and W/omega^2 finite"),
    "wcl_scan_p_nan": (lambda: wcl_scan(BASIS, [1.0], [0.0, math.nan], 1.0),
                       "p_list: must be finite, got nan"),
    "wcl_scan_T_needs_full_fiber": (lambda: wcl_scan(BASIS, [1.0], [0.2], 0.0, T=1.0),
                                    "eps: T needs epsilon = 1"),
    "ak_report_decreasing": (lambda: wienerhopf.ak_convergence_report(WEAK_ATOM, 1.0, [2.0, 1.0]),
                             "T_list: horizons must be increasing, got [2.0, 1.0]"),
    "log_spectral_kappa_nan": (lambda: log_spectral_energy(WEAK_ATOM, math.nan),
                               "kappa: must be finite, got nan"),
    "dispersion_p_inf": (lambda: dipole_dispersion(WEAK_ATOM, 1.0, math.inf),
                         "p: must be finite, got inf"),
    "cutoff_lambda_negative": (lambda: cutoff_energy_3d(-1.0), "Lambda: must be > 0, got -1.0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CALLS)
def test_library_refuses_naming_the_argument(name):
    call, message = CALLS[name]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()

