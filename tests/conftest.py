import pytest

from pfwcl import fockdesk
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,
                              SharpCutoff)

# the two-mode weak-coupling study model; at N_tot = 61 (dim 1953) every
# fock quantity is truncation-converged, and the ground states are iterative
TWO_MODE = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]
TWO_MODE_NTOT = 61


@pytest.fixture(scope="session")
def pm_atom():
    return RadialMeasure(3, PointMasses([(1.0, 3.0)]))


@pytest.fixture(scope="session")
def cutoff1():
    return RadialMeasure(3, SharpCutoff(1.0))


@pytest.fixture(scope="session")
def gauss1():
    return RadialMeasure(3, GaussianProfile(1.0))


@pytest.fixture(scope="session")
def two_mode_ops():
    basis = fockdesk.build_basis(TWO_MODE, TWO_MODE_NTOT)
    return fockdesk.build_operators(basis)


@pytest.fixture(scope="session")
def two_mode_scan_eps1(two_mode_ops):
    return fockdesk.wcl_scan(two_mode_ops, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2], 1.0)


@pytest.fixture(scope="session")
def two_mode_scan_eps0(two_mode_ops):
    return fockdesk.wcl_scan(two_mode_ops, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2], 0.0)
