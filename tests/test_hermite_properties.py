"""Property test of the Hermite evaluators on the working box.

Both evaluators are exact in integer arithmetic and round once, so the
recurrence and the explicit sum must agree bit for bit, not to a tolerance.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.hermite import hermite, hermite_explicit  # noqa: E402


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(0, 60), a=st.floats(0.0, 10.0, exclude_min=True),
       x=st.floats(-10.0, 10.0))
def test_recurrence_equals_explicit_sum_bitwise(n, a, x):
    assert hermite(n, a, x) == hermite_explicit(n, a, x)
