"""Property tests of the ground energy over random single atoms.

For one atom (omega, W) the ground energy of (1/2) A^2 + H_f is the closed form
W / (2 (sqrt(omega^2 + W) + omega)), and the log-spectral value is twice it.
The reported ``estimated_abs_error`` must bound both errors.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pfwcl.energy import ground_energy  # noqa: E402
from pfwcl.formfactor import PointMasses, RadialMeasure  # noqa: E402


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=25, deadline=None, database=None)
@given(omega=log_uniform(1e-2, 1e2), W=log_uniform(1e-3, 1e3))
@example(omega=2.527646432826397, W=0.28141327879927447)   # error 2.85 ulp of calE
# 3.59 ulp above calE with the non-power-of-two scale c = sqrt(M_1 / M_-1),
# whose substitution rounds; 0.59 ulp with c a power of two
@example(omega=2.3896414849181706, W=2.2828886964862014)
def test_error_estimate_bounds_single_atom_error(omega, W):
    result = ground_energy(RadialMeasure(3, PointMasses([(omega, W)])))
    with mpmath.workdps(40):
        o, w = mpmath.mpf(omega), mpmath.mpf(W)
        error = float(abs(mpmath.mpf(result.calE) - w / (2 * (mpmath.sqrt(o * o + w) + o))))
    assert error <= result.estimated_abs_error
    assert abs(result.log_spectral - 2.0 * result.calE) <= result.estimated_abs_error
