"""Property test of the driver's fock-mode check against ``fockdesk.Mode``.

``cli._mode`` repeats the checks of ``Mode.__post_init__`` so that a bad mode
exits 2 before numpy loads: omega > 0, W >= 0, q finite and W/omega^2 a finite
double.  The two copies must refuse exactly the same modes.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.cli import _mode  # noqa: E402
from pfwcl.fockdesk import Mode  # noqa: E402

#: zero, subnormal, tiny (omega^2 underflows), huge (omega^2 overflows),
#: W/omega^2 at the edge of the doubles, negative and non-finite values
EDGES = [0.0, -0.0, 5e-324, 2.2e-308, 1e-160, 1.5e-154, 1e-100, 1.0, 1e154, 1.4e154,
         1e200, 1.7976931348623157e308, -1.0, -5e-324, -1e200, math.inf, -math.inf, math.nan]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))


def refuses(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return True
    return False


@settings(max_examples=500, deadline=None, database=None)
@given(omega=VALUES, weight=VALUES, q=st.one_of(st.none(), VALUES), text=st.booleans())
def test_driver_mode_check_matches_mode(omega, weight, q, text):
    # q None: the two-field form, q = 0
    fields = [omega, weight] + ([] if q is None else [q])
    value = ":".join(map(repr, fields)) if text else fields
    assert refuses(_mode, value) == refuses(Mode, *fields)
    if not refuses(_mode, value):
        assert _mode(value) == (omega, weight, q or 0.0)
