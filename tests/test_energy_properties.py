"""Property tests of the ground energy over random single atoms.

For one atom (omega, W) the ground energy of (1/2) A^2 + H_f is the closed form
W / (2 (sqrt(omega^2 + W) + omega)), and the log-spectral value is twice it.
The reported ``estimated_abs_error`` must bound both errors.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.energy import ground_energy  # noqa: E402
from pfwcl.formfactor import PointMasses, RadialMeasure  # noqa: E402


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=25, deadline=None, database=None)
@given(omega=log_uniform(1e-2, 1e2), W=log_uniform(1e-3, 1e3))
def test_error_estimate_bounds_single_atom_error(omega, W):
    result = ground_energy(RadialMeasure(3, PointMasses([(omega, W)])))
    exact = W / (2.0 * (math.sqrt(omega * omega + W) + omega))
    # the estimate covers the quadrature; the roundings of calE and of the
    # closed form add a few units in the last place
    rounding = 4.0 * math.ulp(exact)
    assert abs(result.calE - exact) <= result.estimated_abs_error + rounding
    assert abs(result.log_spectral - 2.0 * result.calE) <= result.estimated_abs_error
