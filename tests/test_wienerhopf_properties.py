"""Property tests of the Wiener-Hopf layer over random measures.

The operator 1 + kappa^2 C_T is unitarily equivalent to 1 + K_S on [0, S]
with S = kappa^2 T, so log det and the mass functional may depend on (kappa,
T) only through kappa^2 T; the mass functional lies in (0, 1].
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,  # noqa: E402
                              SharpCutoff)
from pfwcl.wienerhopf import log_det, mass_functional  # noqa: E402

positive = st.floats(0.3, 3.0)
MEASURES = st.one_of(
    st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(0.1, 5.0)), min_size=1, max_size=3)
    .map(lambda atoms: RadialMeasure(3, PointMasses(atoms))),
    st.builds(lambda sigma, d: RadialMeasure(d, GaussianProfile(sigma)),
              positive, st.sampled_from([3, 4])),
    positive.map(lambda lam: RadialMeasure(3, SharpCutoff(lam))),
)


@settings(max_examples=15, deadline=None, database=None)
@given(ff=MEASURES, kappa=st.floats(0.1, 3.0), T=st.floats(0.5, 200.0),
       c=st.floats(0.25, 4.0))
def test_depends_on_kappa_squared_T_only(ff, kappa, T, c):
    other = (kappa * math.sqrt(c), T / c)
    assert log_det(ff, *other) == pytest.approx(log_det(ff, kappa, T), rel=1e-10)
    mass = mass_functional(ff, kappa, T)
    assert mass_functional(ff, *other) == pytest.approx(mass, rel=1e-10)
    assert 0.0 < mass <= 1.0
