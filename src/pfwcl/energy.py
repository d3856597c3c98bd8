"""Spectral functions rho, rho-hat, G and the dipole ground-state energy.

All three functions are even in t and reduce to weighted radial integrals
against the form-factor measure (pf denotes the polarization factor, already
absorbed into the weights of a discrete measure):

    rho(t)     = pf * int |phi|^2 / (2 omega) * exp(-|t| kappa^2 omega) dk
    rho_hat(t) = pf * int kappa^2 |phi|^2 / (kappa^4 omega^2 + t^2) dk
    G(t)       = pf * int t^2 |phi|^2/(t^2+omega^2)^2 dk
                 / (1 + pf * int |phi|^2/(t^2+omega^2) dk)

The ground-state energy of (1/2) A(0)^2 + H_f is

    calE = d_eff / (2 pi) * int_R G(t) dt,

where d_eff = d for continuum measures and 1 for discrete ones (the discrete
convention is per scalar component, which makes the truncated-Fock and
Bogoliubov oracles directly comparable).  The log-spectral pipeline

    (1/2 pi) int_R log(1 + kappa^2 rho_hat(t)) dt = (kappa^2 / pi) int_R G(t) dt

is an exact identity and is computed independently as a cross-check.  Its
left side is exactly kappa^2 times its kappa = 1 value, so one kappa = 1
quadrature serves every kappa.

Each spectral function is one sum over the measure's radial rule in Python
floats (``RadialMeasure._float_rule``): it takes a float t and returns a
float, or a 1-D sequence of t and returns a list.  The terms run through
``map`` over C functions into the built-in ``sum``, so no Python function runs
per node and no numpy loads.  The outer integrals run on ``adaptive_quad``,
fold onto [0, inf) by evenness and integrate in s = t / c at the measure's own
scale c = 2^round(log2(M_1 / M_{-1}) / 2): G(c s) and rho_hat_1(c s) are the
same sums on the rule (r / c, w / c^2), whose features sit near s = 1, where
the tan map resolves them.  As c is a power of two the substitution adds no
rounding, and atoms (2^k omega, 4^k W) give exactly 2^k times the calE,
log_spectral and error estimate of (omega, W).

The two t-integrands sum only the nodes that can move them.  The own-scale
rule is sorted by r once, with the prefix sums P_j of its weights.  At s, the
nodes below j add at most P_j / s^2 to sum w/(r^2+s^2) and to
s^2 sum w/(r^2+s^2)^2, and the rest at least (P_K - P_j) x / s^2 and
(P_K - P_j) x^2 / s^2, x = s^2/(r_max^2+s^2).  Each integrand bisects P for
the largest j whose dropped bound is at most 2^-53 times its kept bound, so
the cut moves its exact sum by at most the unit roundoff 2^-53 relative; G's
two sums share its numerator's cut, the stricter one.  What it drops is
mostly the rule's grading toward the origin: on sharp d = 3, lambda = 1
``ground_energy`` sums 24 % of the node terms.  ``G_function``, ``dispersion_parts`` and ``SpectralFunctions``
sum every node.
The d = 3 cutoff energy E(Lambda) needs no measure and lives in ``cutoff``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .formfactor import RadialMeasure, _Record, _effective_component_count, moment_report
from .quadrature import adaptive_quad


def _each(f, t):
    """f(t) at a float t, or the list of f over a 1-D sequence t."""
    try:
        ts = iter(t)
    except TypeError:
        return f(float(t))
    return [f(float(x)) for x in ts]


def measure_integral(ff: RadialMeasure, weight, t):
    """pf * int weight(omega, t) |phi(k)|^2 dk at a float t, or over a sequence.

    A sum over the measure's radial rule: ``weight(r, t)`` gets the rule's
    radii and one float t and returns the weight at every radius as an
    iterable, a chain of ``map`` over C functions, so the sum calls no
    Python function per node.
    """
    r, w = ff._float_rule
    return _each(lambda x: sum(map(mul, w, weight(r, x)), 0.0), t)


class SpectralFunctions(_Record):
    """Evaluator for rho and rho-hat at a fixed coupling scale kappa."""
    _fields = ("ff", "kappa")

    def __init__(self, ff: RadialMeasure, kappa: float = 1.0):
        if not (kappa >= 0.0 and math.isfinite(kappa)):
            raise ValueError(f"kappa must be a nonnegative real, got {kappa}")
        vars(self).update(ff=ff, kappa=kappa)

    def rho(self, t):
        k2 = self.kappa**2     # exp(-|t| k2 r) / (2 r)
        return measure_integral(self.ff, lambda r, t: map(
            truediv, map(math.exp, map(mul, r, repeat(-abs(t) * k2))), map(add, r, r)), t)

    def rho_hat(self, t):
        k2 = self.kappa**2     # k2 / (k2^2 r^2 + t^2)
        return measure_integral(self.ff, lambda r, t: map(truediv, repeat(k2), map(
            add, map(mul, map(mul, r, repeat(k2 * k2)), r), repeat(t * t))), t)


def _parts(r2, w, t2):
    """(t^2 sum w/(t^2+r^2)^2, sum w/(t^2+r^2)) on a rule of squared radii r2."""
    d = list(map(add, r2, repeat(t2)))
    q = list(map(truediv, w, d))
    return t2 * sum(map(truediv, q, d), 0.0), sum(q, 0.0)


def _g(r2, w, t2):
    num, den = _parts(r2, w, t2)
    return num / (1.0 + den)


def dispersion_parts(ff: RadialMeasure, t):
    """The two integrals entering G: (pf*||t phi/(t^2+w^2)||^2, pf*||phi/sqrt(t^2+w^2)||^2).

    A pair of floats at a float t, a pair of lists over a sequence t.
    """
    r, w = ff._float_rule
    r2 = list(map(mul, r, r))
    parts = _each(lambda x: _parts(r2, w, x * x), t)
    if isinstance(parts, tuple):
        return parts
    return [num for num, _ in parts], [den for _, den in parts]


def G_function(ff: RadialMeasure, t):
    """G(t) >= 0, even, with G(0) = 0 for measures without a zero-frequency atom."""
    r, w = ff._float_rule
    r2 = list(map(mul, r, r))
    return _each(lambda x: _g(r2, w, x * x), t)


#: floor of ``estimated_abs_error`` in units in the last place of calE, for the
#: final rounding the quadrature estimate does not see: against a 40-digit
#: closed form, 96 of 7,000 seeded random single atoms (omega log-uniform on
#: [1e-2, 1e2], W on [1e-3, 1e3]) erred above the estimate without it, by at
#: most 2.45 ulp, so 3 is the smallest multiple that bounds them all
ROUNDING_FLOOR_ULPS = 3
#: 2^-53: the cut of ``_kept`` drops nodes that add at most this times the kept sum
_UNIT_ROUNDOFF = 2.0 ** -53


EnergyResult = namedtuple("EnergyResult", ("calE", "log_spectral", "estimated_abs_error"))


def _own_rule(ff: RadialMeasure) -> tuple[float, list, list, list]:
    """(c, (r/c)^2, w/c^2, P): the rule at the measure's own scale c, sorted
    by r, with the prefix sums P_j = w_0 + ... + w_{j-1} of its weights.

    c = 2^round(log2(M_1 / M_{-1}) / 2), halves rounded up, is 2 to the
    exponent of frexp(M_1 / M_{-1}) halved, so 4^k M_1 / M_{-1} gives 2^k c
    exactly; 1 for a rule without weight or a ratio past a double.
    """
    r, w = ff._float_rule
    m_plus, m_minus = sum(map(mul, w, r), 0.0), sum(map(truediv, w, r), 0.0)
    weighted = m_plus > 0.0 and m_minus > 0.0
    c = math.ldexp(1.0, math.frexp(m_plus / m_minus)[1] // 2) if weighted else 1.0
    r, w = zip(*sorted(zip(r, w))) if r else (r, w)
    rho = list(map(mul, r, repeat(1.0 / c)))
    w = list(map(mul, w, repeat(1.0 / (c * c))))
    return c, list(map(mul, rho, rho)), w, [0.0, *accumulate(w)]


def _kept(rule: tuple, s2: float, power: int) -> tuple[list, list]:
    """The nodes j..K-1 of ``_own_rule``'s (r/c)^2 and w/c^2 that a sum at s^2 needs.

    The nodes below j add at most P_j / s^2 to sum w/(r^2+s^2) and to
    s^2 sum w/(r^2+s^2)^2; the kept ones at least (P_K - P_j) x^power / s^2,
    x = s^2/(r_max^2+s^2), with power 1 for the first sum and 2 for the
    second.  j is the largest index whose dropped bound is at most 2^-53 times
    its kept bound, P_j <= P_K u/(1+u) with u = 2^-53 x^power (up to the
    rounding of P): one bisection of P.  No copy when j = 0.
    """
    _, r2, w, prefix = rule
    u = _UNIT_ROUNDOFF * (s2 / (r2[-1] + s2)) ** power if r2 else 0.0
    j = bisect_right(prefix, prefix[-1] * (u / (1.0 + u))) - 1
    return (r2, w) if j == 0 else (r2[j:], w[j:])


def _even_line(f) -> tuple[float, float]:
    """(int_R f, error estimate) for an even integrand f."""
    val, err = adaptive_quad(f, 0.0, math.inf, abs_tol=1e-14)
    return 2.0 * val, 2.0 * err


def ground_energy(ff: RadialMeasure) -> EnergyResult:
    """Ground-state energy of (1/2) A(0)^2 + H_f via the G-quadrature.

    ``log_spectral`` holds the independently computed value
    (1/2 pi) int log(1 + rho_hat_1(t)) dt, which must equal
    (2/d_eff) * calE up to the reported error.
    """
    d_eff = _effective_component_count(ff)
    rule = _own_rule(ff)
    c = rule[0]
    # both sums of G share the cut of its numerator, the stricter one
    i_g, err_g = _even_line(lambda ss: [_g(*_kept(rule, s2, 2), s2) for s2 in map(mul, ss, ss)])
    cal_e = d_eff / (2.0 * math.pi) * i_g * c
    log_spectral, err_log = _unit_log_spectral(rule)

    propagated = d_eff / (2.0 * math.pi) * err_g * c + err_log
    residual = abs(log_spectral - (2.0 / d_eff) * cal_e)
    floor = ROUNDING_FLOOR_ULPS * math.ulp(cal_e)
    return EnergyResult(calE=cal_e, log_spectral=log_spectral,
                        estimated_abs_error=max(propagated, residual, floor))


def _rho_hat_1(r2: list, w: list, s2: float) -> float:
    """sum w/(r^2+s^2) on a rule of squared radii r2."""
    return sum(map(truediv, w, map(add, r2, repeat(s2))), 0.0)


def _unit_log_spectral(rule: tuple) -> tuple[float, float]:
    """((1/2 pi) int_R log(1 + rho_hat_1(t)) dt, its error estimate), from
    ``_own_rule``'s (c, (r/c)^2, w/c^2, P)."""
    c = rule[0]
    val, err = _even_line(lambda ss: [math.log1p(_rho_hat_1(*_kept(rule, s2, 1), s2))
                                      for s2 in map(mul, ss, ss)])
    return val / (2.0 * math.pi) * c, err / (2.0 * math.pi) * c


def log_spectral_energy(ff: RadialMeasure, kappa: float) -> float:
    """(1/2 pi) int_R log(1 + kappa^2 rho_hat_kappa(t)) dt.

    This is exactly kappa^2 times the kappa = 1 value (change of variables
    t -> kappa^2 t), so it is computed as that product, from one kappa = 1
    quadrature: the integrand at kappa itself spreads out to t ~ kappa^2,
    where the quadrature on [0, inf) loses accuracy, then fails, then misses
    it (reading 0) as kappa grows.  It equals (2 kappa^2 / d_eff) * calE.
    """
    return kappa * kappa * _unit_log_spectral(_own_rule(ff))[0]


def dipole_dispersion(ff: RadialMeasure, kappa: float, p: float,
                      cal_e: float | None = None) -> float:
    """Bottom of the dipole fiber spectrum: p^2/(2 m_eff) + kappa^2 * calE.

    ``cal_e`` passes a calE already computed by ``ground_energy``.  Note the
    mass term persists at kappa = 0: the value is p^2/(2 m_eff), not p^2/2.
    """
    rep = moment_report(ff)
    if cal_e is None:
        cal_e = ground_energy(ff).calE
    return p * p / (2.0 * rep.m_eff) + kappa * kappa * cal_e
