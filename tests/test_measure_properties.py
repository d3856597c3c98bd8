"""Property tests over random measures of every profile kind.

For a continuum measure in d dimensions the log-spectral value and the
G-quadrature energy are tied by the exact identity log_spectral = (2/d) calE;
G is nonnegative and even; a measure survives its JSON round trip; and the
CLI prints the same bytes for the same config.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfwcl.cli import run  # noqa: E402
from pfwcl.energy import G_function, ground_energy, log_spectral_energy  # noqa: E402
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,  # noqa: E402
                              SharpCutoff, Tabulated, measure_from_json,
                              measure_to_json)

SETTINGS = settings(max_examples=15, deadline=None, database=None)
scale = st.floats(0.2, 5.0)


@st.composite
def tabulated(draw):
    """3 to 6 points, strictly increasing radii from 0 or above, values in [0, 2]."""
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=3, max_size=6))
    start = draw(st.sampled_from([0.0, 0.1, 0.5]))
    radii = start + np.cumsum([0.0] + steps[:-1])
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=len(steps), max_size=len(steps)))
    return Tabulated(list(zip(radii.tolist(), values)))


CONTINUUM = st.one_of(st.builds(GaussianProfile, scale), st.builds(SharpCutoff, scale),
                      tabulated())
ATOMS = st.lists(st.tuples(scale, st.floats(0.01, 5.0)), min_size=1, max_size=4).map(PointMasses)
CONTINUUM_MEASURES = st.builds(RadialMeasure, st.sampled_from([3, 4, 5]), CONTINUUM)
MEASURES = st.builds(RadialMeasure, st.sampled_from([3, 4, 5]), st.one_of(CONTINUUM, ATOMS))


@SETTINGS
@given(ff=CONTINUUM_MEASURES)
def test_log_spectral_is_two_over_d_times_calE(ff):
    # abs: the quadrature's absolute tolerance, which decides for tiny measures
    # (calE = 6e-7 agrees to 3.6e-16, 1.2e-9 relative)
    cal_e = ground_energy(ff).calE
    assert log_spectral_energy(ff, 1.0) == pytest.approx(2.0 / ff.dimension * cal_e,
                                                         rel=1e-9, abs=1e-14)


@SETTINGS
@given(ff=MEASURES, t=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_G_nonnegative_and_even(ff, t):
    t = np.array(t)
    g = G_function(ff, t)
    assert min(g) >= 0.0
    assert np.array_equal(G_function(ff, -t), g)


@SETTINGS
@given(ff=MEASURES)
def test_json_round_trip(ff):
    assert measure_from_json(measure_to_json(ff)) == ff
    assert measure_from_json(json.loads(json.dumps(measure_to_json(ff)))) == ff


def _cli_bytes(argv) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return out.getvalue(), err.getvalue(), code


@SETTINGS
@given(ff=MEASURES, kappa=st.floats(0.25, 4.0), p=st.floats(0.0, 2.0))
def test_cli_repeats_byte_for_byte(ff, kappa, p):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"measure": measure_to_json(ff)}, fh)
        for argv in (["validate", "--config", cfg],
                     ["energy", "--config", cfg, "--kappa", repr(kappa), "--p", repr(p)]):
            first = _cli_bytes(argv)
            assert first[2] == 0 and first[0]
            assert _cli_bytes(argv) == first
