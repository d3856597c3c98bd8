"""d = 3 sharp-cutoff asymptotics E(Lambda), on the standard library.

The ground energy of the d = 3 sharp-cutoff model at kappa = 1 is one
closed-form u-integral per Lambda, so it needs neither the measure's radial
rule nor numpy: the integrand is scalar and runs on ``adaptive_quad``.
"""

from __future__ import annotations

import math

from .quadrature import adaptive_quad

_SERIES_SWITCH = 1e-3


def _arctan_minus_rational(u: float) -> float:
    """arctan(u) - u/(1+u^2); series (2/3)u^3 - (4/5)u^5 + (6/7)u^7 - ... for small u."""
    if abs(u) < _SERIES_SWITCH:
        u2 = u * u
        return u**3 * (2.0 / 3.0 + u2 * (-4.0 / 5.0 + u2 * (
            6.0 / 7.0 + u2 * (-8.0 / 9.0 + u2 * (10.0 / 11.0)))))
    return math.atan(u) - u / (1.0 + u * u)


def _u_minus_arctan(u: float) -> float:
    """u - arctan(u); series u^3/3 - u^5/5 + u^7/7 - ... for small u."""
    if abs(u) < _SERIES_SWITCH:
        u2 = u * u
        return u**3 * (1.0 / 3.0 + u2 * (-1.0 / 5.0 + u2 * (
            1.0 / 7.0 + u2 * (-1.0 / 9.0 + u2 * (1.0 / 11.0)))))
    return u - math.atan(u)


def _cutoff_integrand(lam: float):
    c = 8.0 * math.pi / 3.0 * lam

    def g(us):
        return [_arctan_minus_rational(u) / ((u + c * _u_minus_arctan(u)) * u * u)
                for u in us]

    return g


def cutoff_energy_3d(lam: float) -> float:
    """Ground energy E(Lambda) of the d = 3 sharp-cutoff model at kappa = 1:

        E = 4 Lambda^2 int_0^inf [arctan u - u/(1+u^2)]
            / [u + (8 pi/3) Lambda (u - arctan u)] du / u^2.

    Agrees with ground_energy(SharpCutoff(Lambda), d=3).calE; grows like
    Lambda^{3/2} with E/Lambda^{3/2} eventually inside
    [sqrt(2 pi/3), sqrt(2 pi)].
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"cutoff Lambda must be positive and finite, got {lam}")
    return 4.0 * lam * lam * adaptive_quad(_cutoff_integrand(lam), 0.0, math.inf)[0]


def cutoff_split_I1_I2(lam: float) -> tuple[float, float]:
    """Split E(Lambda)/(4 Lambda) = I1 + I2 at u = Lambda^{-1/4}.

    I2/sqrt(Lambda) -> 0 while I1/sqrt(Lambda) carries the Lambda^{3/2}
    growth of E.
    """
    if not 1.0 < lam < math.inf:
        raise ValueError(f"the split needs a finite Lambda > 1, got {lam}")
    g = _cutoff_integrand(lam)
    u_split = lam ** -0.25
    return (lam * adaptive_quad(g, 0.0, u_split)[0],
            lam * adaptive_quad(g, u_split, math.inf)[0])
