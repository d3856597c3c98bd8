"""Property test of the one fock-mode rule, ``params.mode``.

The driver converts ``--modes`` with it before numpy loads, and
``fockdesk.build_basis`` checks its modes with it too.  It must refuse exactly
the modes its documented predicate refuses, and ``build_basis`` must refuse
the same ones.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.fockdesk import build_basis  # noqa: E402
from pfwcl.params import mode  # noqa: E402

#: zero, subnormal, tiny (omega^2 underflows), huge (omega^2 overflows),
#: W/omega^2 at the edge of the doubles, negative and non-finite values
EDGES = [0.0, -0.0, 5e-324, 2.2e-308, 1e-160, 1.5e-154, 1e-100, 1.0, 1e154, 1.4e154,
         1e200, 1.7976931348623157e308, -1.0, -5e-324, -1e200, math.inf, -math.inf, math.nan]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))


def documented(omega, weight, q) -> bool:
    """The predicate of ``docs/measure_schema.md``: omega > 0, W >= 0, q finite,
    and W/omega^2 a finite double, so omega^2 neither overflows nor underflows."""
    if not all(map(math.isfinite, (omega, weight, q))) or not (omega > 0.0 and weight >= 0.0):
        return False
    square = omega * omega
    return 0.0 < square < math.inf and math.isfinite(weight / square)


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
    refused = refuses(mode, value)
    assert refused == (not documented(omega, weight, q or 0.0))
    assert refuses(build_basis, [value], 1) == refused
    if not refused:
        assert mode(value) == (omega, weight, q or 0.0)
        assert build_basis([value], 1).modes == (mode(value),)
