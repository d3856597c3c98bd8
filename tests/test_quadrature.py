import math

import numpy as np
import pytest
from scipy import integrate

from pfwcl import quadrature
from pfwcl.errors import QuadratureError
from pfwcl.quadrature import adaptive_quad, gauss_panels


def test_polynomial_exact():
    val, err = adaptive_quad(lambda x: [3 * t**2 for t in x], 0.0, 2.0)
    assert abs(val - 8.0) < 1e-13
    assert err < 1e-12


@pytest.mark.parametrize("f,a,b", [
    (lambda x: [math.exp(-t) * math.sin(5 * t) for t in x], 0.0, 7.0),
    (lambda x: [1.0 / (1.0 + 25 * t**2) for t in x], -1.0, 1.0),
    (lambda x: [math.sqrt(abs(t - 0.3)) for t in x], 0.0, 1.0),
])
def test_against_quadpack(f, a, b, monkeypatch):
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
    mine, _ = adaptive_quad(f, a, b)
    ref, _ = integrate.quad(lambda x: f([x])[0], a, b,
                            epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_half_line_tail_map(monkeypatch):
    # int_0^inf e^{-r} dr = 1 and int_0^inf r^2 e^{-r^2} dr = sqrt(pi)/4
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
    v1, _ = adaptive_quad(lambda x: [math.exp(-r) for r in x], 0.0, math.inf)
    assert abs(v1 - 1.0) < 1e-11
    v2, _ = adaptive_quad(lambda x: [r**2 * math.exp(-r**2) for r in x], 0.0, math.inf)
    assert abs(v2 - math.sqrt(math.pi) / 4) < 1e-11


def test_whole_line_tan_map():
    # even integrand: int_R dt/(1+t^2) = pi
    val = 2.0 * adaptive_quad(lambda x: [1.0 / (1.0 + t * t) for t in x], 0.0, math.inf)[0]
    assert abs(val - math.pi) < 1e-10
    # int_R log(1 + 3/(1+t^2)) dt = 2 pi (sqrt(4) - sqrt(1))
    val2 = 2.0 * adaptive_quad(lambda x: [math.log1p(3.0 / (1.0 + t * t)) for t in x],
                               0.0, math.inf)[0]
    assert abs(val2 - 2 * math.pi) < 1e-9


def test_zero_integrand():
    val, err = adaptive_quad(lambda x: [0.0] * len(x), 0.0, 5.0)
    assert val == 0.0 and err == 0.0


def test_panel_exhaustion_reports_residual(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lambda x: [1.0 / r for r in x], 0.0, 1.0)
    assert info.value.residual is not None and info.value.residual > 0


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: [math.nan] * len(x), 0.0, 1.0)


@pytest.mark.parametrize("a", [2.0, 0.5, -3.0])
def test_half_line_from_a(a):
    # the map t = a + tan(theta) must use this call's a, not the mapped
    # interval's 0: int_a^inf dt/t^2 = 1/a, int_a^inf e^{-(t - a)} dt = 1
    if a > 0:
        assert adaptive_quad(lambda x: [1.0 / t**2 for t in x], a, math.inf)[0] == pytest.approx(
            1.0 / a, rel=1e-12)
    assert adaptive_quad(lambda x: [math.exp(a - t) for t in x], a, math.inf)[0] == pytest.approx(
        1.0, rel=1e-12)


@pytest.mark.parametrize("b", [3.0, math.inf])
def test_list_and_array_integrands_agree_bitwise(b):
    # the integrand gets a list and may return a list or a numpy array: the
    # same floats give the same fsum panel sums, so the same (value, error)
    def as_list(x):
        return [1.0 / (1.0 + t * t) for t in x]

    def as_array(x):
        t = np.asarray(x)
        return 1.0 / (1.0 + t * t)

    assert adaptive_quad(as_list, 0.5, b) == adaptive_quad(as_array, 0.5, b)


@pytest.mark.parametrize("order", [4, 20])
def test_gauss_panels(order):
    # exact for polynomials of degree 2 order - 1 on every panel
    x, w = gauss_panels([0.0, 0.25, 1.0, 3.0], order)
    assert len(x) == len(w) == 3 * order
    assert all(b > a for a, b in zip(x, x[1:])) and x[0] > 0.0 and x[-1] < 3.0
    assert math.fsum(v * t ** (2 * order - 1) for t, v in zip(x, w)) == pytest.approx(
        3.0 ** (2 * order) / (2 * order), rel=1e-13)


def legendre_rule_mp(n, mp):
    """Gauss-Legendre nodes (ascending) and weights at the working precision
    of ``mp``, by Newton's method on P_n from the Tricomi starting values."""
    nodes, weights = [], []
    for k in range(n, 0, -1):
        x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        while True:
            prev, p = mp.mpf(1), x
            for j in range(2, n + 1):
                prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
            dp = n * (x * p - prev) / (x * x - 1)
            if abs(p / dp) < mp.mpf(10) ** (5 - mp.dps):
                break
            x -= p / dp
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def test_gl_rule_against_40_digits():
    # the double rule is within rounding of the exact one: numpy's leggauss
    # misses the weights by 7e-13 at order 40
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for n in range(1, 41):
            x, w = quadrature._gl_rule(n)
            nodes, weights = legendre_rule_mp(n, mp)
            assert max(abs(mp.mpf(a) - b) for a, b in zip(x, nodes)) <= 2.3e-16, n
            assert max(abs(mp.mpf(a) / b - 1) for a, b in zip(w, weights)) <= 1e-13, n
            assert x == tuple(-t for t in reversed(x)) and w == tuple(reversed(w))
