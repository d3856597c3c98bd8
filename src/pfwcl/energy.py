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
quadrature, kept with calE per measure, serves every kappa.

Each spectral function is one sum over the measure's radial rule
(``RadialMeasure.rule``) at one float t, in Python floats: the terms run
through ``map`` over C functions into the built-in ``sum``, so no Python
function runs per node and no numpy loads.  The outer integrals run on
``adaptive_quad``, fold onto [0, inf) by evenness and integrate in s = t / c at
the measure's own scale c = 2^round(log2(M_1 / M_{-1}) / 2), read from
``moment_report``: G(c s) and rho_hat_1(c s) are the same sums on the rule
(r / c, w / c^2), whose features sit near s = 1, where the tan map resolves
them.  As c is a power of two the substitution adds no rounding, and atoms
(2^k omega, 4^k W) give exactly 2^k times the calE, log_spectral and error
estimate of (omega, W).

The two t-integrands sum only the nodes that can move them.  The rule is sorted
by r; ``_own_rule`` adds the prefix sums P_j of its weights.  At s, the
nodes below j add at most P_j / s^2 to sum w/(r^2+s^2) and to
s^2 sum w/(r^2+s^2)^2, and the rest at least (P_K - P_j) x / s^2 and
(P_K - P_j) x^2 / s^2, x = s^2/(r_max^2+s^2).  Each integrand bisects P for
the largest j whose dropped bound is at most 2^-53 times its kept bound, so
the cut moves its exact sum by at most the unit roundoff 2^-53 relative; G's
two sums share its numerator's cut, the stricter one.  What it drops is
mostly the rule's grading toward the origin: on sharp d = 3, lambda = 1
``ground_energy`` sums 24 % of the node terms.  ``G_function``,
``dispersion_parts`` and ``SpectralFunctions`` sum every node.
The d = 3 cutoff energy E(Lambda) needs no measure and lives in ``cutoff``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .formfactor import RadialMeasure, _Record, _effective_component_count, moment_report
from .params import checked, coupling, momentum
from .quadrature import adaptive_quad


class SpectralFunctions(_Record):
    """Evaluator for rho and rho-hat at a fixed coupling scale kappa."""
    _fields = ("ff", "kappa")

    def __init__(self, ff: RadialMeasure, kappa: float = 1.0):
        vars(self).update(ff=ff, kappa=checked("kappa", coupling, kappa))

    def rho(self, t: float) -> float:
        r, w = self.ff.rule
        k2 = self.kappa**2     # w exp(-|t| k2 r) / (2 r)
        return sum(map(mul, w, map(truediv, map(math.exp, map(mul, r, repeat(-abs(t) * k2))),
                                   map(add, r, r))), 0.0)

    def rho_hat(self, t: float) -> float:
        r, w = self.ff.rule
        k2 = self.kappa**2     # w / (k2 r^2 + t^2 / k2): no k2^2 to overflow
        if k2 == 0.0:          # the kappa -> 0 limit: inf at t = 0, else 0
            return 0.0 / abs(t) if t else math.inf
        return sum(map(truediv, w, map(add, map(mul, map(mul, r, repeat(k2)), r),
                                       repeat(t * t / k2))), 0.0)


def _parts(r2, w, t2):
    """(t^2 sum w/(t^2+r^2)^2, sum w/(t^2+r^2)) on a rule of squared radii r2."""
    d = list(map(add, r2, repeat(t2)))
    q = list(map(truediv, w, d))
    return t2 * sum(map(truediv, q, d), 0.0), sum(q, 0.0)


def _g(r2, w, t2):
    num, den = _parts(r2, w, t2)
    return num / (1.0 + den)


def dispersion_parts(ff: RadialMeasure, t: float) -> tuple[float, float]:
    """The two integrals entering G: (pf*||t phi/(t^2+w^2)||^2, pf*||phi/sqrt(t^2+w^2)||^2)."""
    r, w = ff.rule
    return _parts(list(map(mul, r, r)), w, t * t)


def G_function(ff: RadialMeasure, t: float) -> float:
    """G(t) >= 0, even, with G(0) = 0 for measures without a zero-frequency atom."""
    num, den = dispersion_parts(ff, t)
    return num / (1.0 + den)


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
    by r as the rule is, with the prefix sums P_j = w_0 + ... + w_{j-1} of its
    weights.

    c = 2^round(log2(M_1 / M_{-1}) / 2), halves rounded up, is 2 to the
    exponent of frexp(M_1 / M_{-1}) halved, so 4^k M_1 / M_{-1} gives 2^k c
    exactly; 1 for a measure without weight or a ratio past a double.
    """
    rep = moment_report(ff)
    weighted = rep.m_plus1 > 0.0 and rep.m_minus1 > 0.0
    c = math.ldexp(1.0, math.frexp(rep.m_plus1 / rep.m_minus1)[1] // 2) if weighted else 1.0
    r, w = ff.rule
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
    (2/d_eff) * calE up to the reported error.  Computed once per measure.
    """
    return _ground(ff)


def _rho_hat_1(r2: list, w: list, s2: float) -> float:
    """sum w/(r^2+s^2) on a rule of squared radii r2."""
    return sum(map(truediv, w, map(add, r2, repeat(s2))), 0.0)


@lru_cache(maxsize=32)
def _ground(ff: RadialMeasure) -> EnergyResult:
    """``ground_energy``, both quadratures in s = t / c on ``_own_rule``."""
    d_eff = _effective_component_count(ff)
    rule = _own_rule(ff)
    c = rule[0]
    # both sums of G share the cut of its numerator, the stricter one
    i_g, err_g = _even_line(lambda ss: [_g(*_kept(rule, s2, 2), s2) for s2 in map(mul, ss, ss)])
    i_log, err_log = _even_line(lambda ss: [math.log1p(_rho_hat_1(*_kept(rule, s2, 1), s2))
                                            for s2 in map(mul, ss, ss)])
    cal_e = d_eff / (2.0 * math.pi) * i_g * c
    log_spectral = i_log / (2.0 * math.pi) * c
    propagated = d_eff / (2.0 * math.pi) * err_g * c + err_log / (2.0 * math.pi) * c
    residual = abs(log_spectral - (2.0 / d_eff) * cal_e)
    floor = ROUNDING_FLOOR_ULPS * math.ulp(cal_e)
    return EnergyResult(calE=cal_e, log_spectral=log_spectral,
                        estimated_abs_error=max(propagated, residual, floor))


def log_spectral_energy(ff: RadialMeasure, kappa: float) -> float:
    """(1/2 pi) int_R log(1 + kappa^2 rho_hat_kappa(t)) dt.

    This is exactly kappa^2 times the kappa = 1 value (change of variables
    t -> kappa^2 t), so it is computed as that product, from ``ground_energy``'s
    kappa = 1 value: the integrand at kappa itself spreads out to t ~ kappa^2,
    where the quadrature on [0, inf) loses accuracy, then fails, then misses
    it (reading 0) as kappa grows.  It equals (2 kappa^2 / d_eff) * calE.
    """
    kappa = checked("kappa", coupling, kappa)
    return kappa * kappa * _ground(ff).log_spectral


def dipole_dispersion(ff: RadialMeasure, kappa: float, p: float) -> float:
    """Bottom of the dipole fiber spectrum: p^2/(2 m_eff) + kappa^2 * calE; the
    mass term persists at kappa = 0, where the value is p^2/(2 m_eff), not p^2/2."""
    kappa, p = checked("kappa", coupling, kappa), checked("p", momentum, p)
    return p * p / (2.0 * moment_report(ff).m_eff) + kappa * kappa * _ground(ff).calE
