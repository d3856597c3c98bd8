"""The discrete radial rule against closed forms.

Every integral against a form-factor measure is a sum over
``RadialMeasure.rule``; these oracles pin the moments, rho, rho_hat and the
Wiener-Hopf kernel realized from it to near machine precision.
"""

import math

import numpy as np
import pytest

from pfwcl.energy import SpectralFunctions
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,
                              SharpCutoff, Tabulated, moment)
from pfwcl.wienerhopf import realization

ORDERS = (-3, -2, -1, 1)
DIMENSIONS = (3, 4, 5)
TABULATED_AWAY = [(0.25, 0.0), (0.65, 0.8), (1.05, 0.6), (1.45, 0.9), (1.85, 0.0)]
TABULATED_ORIGIN = [(0.0, 1.0), (0.5, 0.7), (2.0, 0.0)]
TAUS = (0.0, 1e-3, 0.1, 1.0, 7.5, 80.0, 300.0, 1000.0)
TS = (1e-8, 1e-4, 0.3, 1.0, 40.0, 1e3, 1e6)
LAMBDAS = (1.0, 1e2, 1e4)
#: (d, s) with a finite moment even when phi(0) != 0
FINITE = [(d, s) for d in DIMENSIONS for s in ORDERS if s + d > 0]


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def rel_err(got, exact):
    return abs(got - exact) / abs(exact)


def mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    return mp


# -- moments (sharp cutoffs: tests/test_formfactor.py) -------------------------

@pytest.mark.parametrize("d,s", FINITE)
@pytest.mark.parametrize("sigma", [0.3, 1.0, 5.0])
def test_gaussian_moments(d, s, sigma):
    expected = sphere_area(d) * sigma ** (s + d) * math.gamma((s + d) / 2) / 2
    assert rel_err(moment(RadialMeasure(d, GaussianProfile(sigma)), s), expected) <= 1e-14


@pytest.mark.parametrize("points", [TABULATED_AWAY, TABULATED_ORIGIN])
def test_tabulated_m_minus2_segment_formula(points):
    # d = 3: M_{-2} = 4 pi sum (b - a)(phi_a^2 + phi_a phi_b + phi_b^2) / 3
    expected = 4.0 * math.pi * math.fsum(
        (b - a) * (fa * fa + fa * fb + fb * fb) / 3.0
        for (a, fa), (b, fb) in zip(points[:-1], points[1:]))
    assert rel_err(moment(RadialMeasure(3, Tabulated(points)), -2), expected) <= 1e-14


@pytest.mark.parametrize("d,s,points",
                         [(d, s, TABULATED_AWAY) for d in DIMENSIONS for s in ORDERS]
                         + [(d, s, TABULATED_ORIGIN) for d, s in FINITE])
def test_tabulated_moments(d, s, points):
    mp = mpmath()
    total = mp.mpf(0)
    for (a, fa), (b, fb) in zip(points[:-1], points[1:]):
        slope = mp.mpf(fb - fa) / (b - a)
        total += mp.quad(lambda r: (fa + slope * (r - a)) ** 2 * r ** (s + d - 1), [a, b])
    expected = sphere_area(d) * float(total)
    assert rel_err(moment(RadialMeasure(d, Tabulated(points)), s), expected) <= 1e-14


PROFILES = {
    "sharp": SharpCutoff(1.0),
    "gaussian": GaussianProfile(1.0),
    "tabulated_origin": Tabulated(TABULATED_ORIGIN),
    "tabulated_away": Tabulated(TABULATED_AWAY),
    "atoms": PointMasses([(1.0, 3.0), (2.0, 0.5)]),
}
# phi(0) != 0 makes int phi^2 r^{s+d-1} dr diverge at the origin iff s + d <= 0
DIVERGENT = {("sharp", 3, -3), ("gaussian", 3, -3), ("tabulated_origin", 3, -3)}


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("s", ORDERS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_divergent_moments_are_inf(name, d, s):
    value = moment(RadialMeasure(d, PROFILES[name]), s)
    if (name, d, s) in DIVERGENT:
        assert value == math.inf
    else:
        assert math.isfinite(value) and value > 0.0


def test_rule_is_cached_and_read_only(gauss1):
    r, w = gauss1.rule
    assert gauss1.rule[0] is r
    assert type(r) is tuple and type(w) is tuple


def test_point_masses_are_their_own_rule():
    # sorted by (omega, W), in whatever order the atoms come
    atoms = [(2.0, 0.5), (1.0, 3.0)]
    for order in (atoms, atoms[::-1]):
        assert RadialMeasure(3, PointMasses(order)).rule == ((1.0, 2.0), (3.0, 0.5))
    tied = [(1.0, 2.0), (0.5, 4.0), (1.0, 1.0), (0.5, 3.0)]
    assert RadialMeasure(3, PointMasses(tied)).rule == ((0.5, 0.5, 1.0, 1.0),
                                                        (3.0, 4.0, 1.0, 2.0))


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("d", DIMENSIONS)
def test_rule_is_sorted_by_r(name, d):
    # energy._kept bisects the prefix sums of the weights in this order;
    # panel nodes ascend strictly, so the realization's merge keeps every node
    r, w = RadialMeasure(d, PROFILES[name]).rule
    assert len(r) == len(w) > 0
    assert all(a < b for a, b in zip(r, r[1:]))


# -- rho and rho_hat (d = 3, kappa = 1, pf * S_2 = 8 pi / 3) ------------------

def sharp_rho(lam, tau):
    """(4 pi/3)(1 - e^{-tau lam}(1 + tau lam)) / tau^2, lam^2 (2 pi/3) at tau = 0."""
    mp = mpmath()
    lam, tau = mp.mpf(lam), mp.mpf(tau)
    if tau == 0:
        return float(2 * mp.pi / 3 * lam**2)
    x = tau * lam
    return float(4 * mp.pi / 3 * (1 - mp.exp(-x) * (1 + x)) / tau**2)


def sharp_rho_hat(lam, t):
    mp = mpmath()
    lam, t = mp.mpf(lam), mp.mpf(t)
    return float(8 * mp.pi / 3 * (lam - t * mp.atan(lam / t)))


def gaussian_rho(tau):
    mp = mpmath()
    tau = mp.mpf(tau)
    erfcx = mp.exp(tau**2 / 4) * mp.erfc(tau / 2)
    return float(4 * mp.pi / 3 * (mp.mpf(1) / 2 - tau * mp.sqrt(mp.pi) / 4 * erfcx))


def gaussian_rho_hat(t):
    """pf S (sqrt(pi)/2 - (pi t/2) erfcx(t)) for sigma = 1."""
    mp = mpmath()
    t = mp.mpf(t)
    erfcx = mp.exp(t * t) * mp.erfc(t)
    return float(8 * mp.pi / 3 * (mp.sqrt(mp.pi) / 2 - mp.pi * t / 2 * erfcx))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("tau", TAUS)
def test_sharp_rho_closed_form(lam, tau):
    sf = SpectralFunctions(RadialMeasure(3, SharpCutoff(lam)))
    assert rel_err(sf.rho(tau), sharp_rho(lam, tau)) <= 1e-13


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("t", TS)
def test_sharp_rho_hat_closed_form(lam, t):
    sf = SpectralFunctions(RadialMeasure(3, SharpCutoff(lam)))
    assert rel_err(sf.rho_hat(t), sharp_rho_hat(lam, t)) <= 1e-13


@pytest.mark.parametrize("tau", TAUS)
def test_gaussian_rho_closed_form(gauss1, tau):
    assert rel_err(SpectralFunctions(gauss1).rho(tau), gaussian_rho(tau)) <= 1e-13


@pytest.mark.parametrize("t", TS)
def test_gaussian_rho_hat_closed_form(gauss1, t):
    assert rel_err(SpectralFunctions(gauss1).rho_hat(t), gaussian_rho_hat(t)) <= 1e-13


# -- the Wiener-Hopf kernel of the state-space realization ---------------------

def realized_rho(ff, kappa, tau):
    ss = realization(ff)
    # a sum per entry, so equal |tau| gives bitwise equal values wherever it sits
    return np.sum(np.exp(-np.abs(np.asarray(tau, dtype=float))[..., None] * kappa ** 2 * ss.lam)
                  * ss.g ** 2, axis=-1)


def test_kernel_entries_exact(cutoff1):
    for tau in (0.0, 1e-3, 0.1, 1.0, 2.5, 5.0):
        assert rel_err(float(realized_rho(cutoff1, 1.0, tau)), sharp_rho(1.0, tau)) <= 1e-13


@pytest.mark.parametrize("ff_name", ["cutoff1", "gauss1"])
def test_continuum_kernel_exactly_symmetric(ff_name, request):
    # the kernel matrix on a grid, rho(t_i - t_j), is exactly symmetric and
    # matches the rule's rho to rounding
    ff = request.getfixturevalue(ff_name)
    t = np.linspace(0.0, 4.0, 41)
    K = realized_rho(ff, 1.3, t[:, None] - t[None, :])
    assert np.array_equal(K, K.T)
    exact = np.vectorize(SpectralFunctions(ff, 1.3).rho)(t[:, None] - t[None, :])
    assert np.max(np.abs(K - exact)) <= 1e-14 * exact[0, 0]
