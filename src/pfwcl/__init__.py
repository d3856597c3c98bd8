"""Numerical laboratory for the Pauli-Fierz model in its weak-coupling scaling.

Submodules:

- ``formfactor``: rotation-invariant measures, moment integrals, delta_m, m_eff
- ``energy``: spectral functions rho/rho-hat/G and the dipole ground energy
- ``cutoff``: the d=3 sharp-cutoff asymptotics E(Lambda)
- ``wienerhopf``: truncated Wiener-Hopf determinants, u_T, vacuum amplitudes
- ``normalmodes``: the normal modes that ``wienerhopf`` and ``fockdesk`` share
- ``jacobi``: the small symmetric eigensolver of ``fockdesk`` and ``hermite``
- ``hermite``: generalized Hermite polynomials and their generating operator
- ``fockdesk``: Fock space, fiber Hamiltonians, weak-coupling and semigroup studies
- ``errors``: the exception types shared across the package
- ``cli``: the ``pfwcl`` command-line driver

Importing the package loads none of them: import names from the submodule
that defines them (``from pfwcl.energy import ground_energy``), so a process
loads only what it uses.
"""

__version__ = "0.1.0"
