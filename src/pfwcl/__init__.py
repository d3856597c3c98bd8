"""Numerical laboratory for the Pauli-Fierz model in its weak-coupling scaling.

Submodules:

- ``formfactor``: rotation-invariant measures, moment integrals, delta_m, m_eff
- ``energy``: spectral functions rho/rho-hat/G, the dipole ground energy,
  and the d=3 sharp-cutoff asymptotics E(Lambda)
- ``wienerhopf``: truncated Wiener-Hopf determinants, u_T, vacuum amplitudes
- ``hermite``: generalized Hermite polynomials and their generating operator
- ``fockdesk``: truncated bosonic Fock space, fiber Hamiltonians,
  weak-coupling and semigroup residual studies
- ``cli``: the ``pfwcl`` command-line driver
"""

from .energy import (EnergyResult, G_function, SpectralFunctions,
                     cutoff_energy_3d, cutoff_split_I1_I2, dipole_dispersion,
                     ground_energy, log_spectral_energy)
from .errors import (BasisSizeError, MeasureError, NumericalError, PfwclError,
                     QuadratureError)
from .formfactor import (GaussianProfile, MomentReport, PointMasses,
                         RadialMeasure, SharpCutoff, Tabulated,
                         measure_from_json, measure_to_json, moment,
                         moment_report)

__all__ = [
    "BasisSizeError", "EnergyResult", "G_function", "GaussianProfile",
    "MeasureError", "MomentReport", "NumericalError", "PfwclError",
    "PointMasses", "QuadratureError", "RadialMeasure", "SharpCutoff",
    "SpectralFunctions", "Tabulated", "cutoff_energy_3d", "cutoff_split_I1_I2",
    "dipole_dispersion", "ground_energy", "log_spectral_energy",
    "measure_from_json", "measure_to_json", "moment", "moment_report",
]

__version__ = "0.1.0"
