"""Generalized Hermite polynomials H_n(a, x) and their generating operator.

H_n(a, x) = (-1)^n e^{a x^2} (d/dx)^n e^{-a x^2}; H_n(1, .) is the standard
(physicists') Hermite polynomial and H_n(a, x) = a^{n/2} H_n(1, sqrt(a) x).
Combining that scaling with the classical recurrence gives

    H_{k+1}(a, x) = 2 a x H_k(a, x) - 2 a k H_{k-1}(a, x),

since a^{(k+1)/2} H_{k+1}(1, y) = 2 a x * a^{k/2} H_k(1, y)
- 2 k a * a^{(k-1)/2} H_{k-1}(1, y) at y = sqrt(a) x.

All scalar evaluation accumulates in 80-bit extended precision with
compensated summation so the explicit sum and the recurrence agree to 1e-12
relative on the working box n <= 60, |x| <= 10, a <= 10.  Where numpy's
longdouble is plain double (a 52-bit mantissa, as on Windows and macOS/arm64)
that agreement fails, and the extended-precision routines raise
NumericalError instead of returning less accurate values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalError

_LD = np.longdouble


def _check_args(n: int, a: float) -> None:
    if n < 0 or int(n) != n:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"parameter a must be positive, got {a}")


def _require_extended() -> None:
    nmant = np.finfo(_LD).nmant
    if nmant < 63:
        raise NumericalError(
            f"numpy.longdouble has a {nmant}-bit mantissa on this platform; the Hermite "
            "routines need 80-bit extended precision (63 bits) for the 1e-12 "
            "recurrence-versus-explicit agreement")


def _hermite_ld(n: int, a, x):
    """Recurrence evaluation in longdouble, elementwise over x (a scalar or an
    array, in the same operation order either way); raises OverflowError on
    overflow."""
    _require_extended()
    a = _LD(a)
    x = np.asarray(x, dtype=_LD)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = 2.0 * a * x
    for k in range(1, n):
        h, h_prev = 2.0 * a * x * h - 2.0 * a * _LD(k) * h_prev, h
        finite = np.isfinite(h)
        if not finite.all():
            raise OverflowError(f"H_{k + 1}(a={float(a)}, x={float(x[~finite][0])}) "
                                "overflowed extended precision")
    return h


def hermite(n: int, a: float, x: float) -> float:
    """H_n(a, x) by the three-term recurrence."""
    _check_args(n, a)
    value = float(_hermite_ld(n, a, x))
    if not math.isfinite(value):
        raise OverflowError(f"H_{n}(a={a}, x={x}) does not fit in a double")
    return value


def hermite_explicit(n: int, a: float, x: float) -> float:
    """H_n(a, x) from the explicit sum over m <= n/2:

        sum_m (-1)^m n! a^{n-m} (2x)^{n-2m} / (m! (n-2m)!).

    Doubles are dyadic rationals, so the alternating sum is accumulated in
    exact rational arithmetic and rounded once at the end; this survives the
    severe term cancellation at the corners of the working box and serves as
    the in-package cross-check of the recurrence.
    """
    _check_args(n, a)
    a_q = Fraction(a)
    two_x_q = 2 * Fraction(x)
    total = Fraction(0)
    for m in range(n // 2 + 1):
        coeff = math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m))
        total += (-1) ** m * coeff * a_q ** (n - m) * two_x_q ** (n - 2 * m)
    value = float(total)
    if not math.isfinite(value):
        raise OverflowError(f"explicit H_{n}(a={a}, x={x}) overflowed")
    return value


def generating_function_residual(a: float, x: float, t: float, N: int) -> float:
    """| sum_{n<=N} H_n(a,x) t^n / n!  -  exp(2 a t x - a t^2) |."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    _check_args(0, a)
    _require_extended()
    a_ld, x_ld, t_ld = _LD(a), _LD(x), _LD(t)
    h_prev = _LD(1.0)
    h = 2.0 * a_ld * x_ld
    total = _LD(1.0)           # n = 0 term
    comp = _LD(0.0)
    t_pow_over_fact = _LD(1.0)
    for n in range(1, N + 1):
        t_pow_over_fact = t_pow_over_fact * t_ld / _LD(n)
        term = h * t_pow_over_fact
        if not np.isfinite(term):
            raise OverflowError(f"generating-series term n={n} overflowed")
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        h, h_prev = 2.0 * a_ld * x_ld * h - 2.0 * a_ld * _LD(n) * h_prev, h
    closed = np.exp(2.0 * a_ld * t_ld * x_ld - a_ld * t_ld * t_ld)
    return float(abs(total - closed))


def hermite_bound(n: int, a: float, x: float) -> float:
    """log of the growth envelope a^{n/2} sqrt(2^n n!) exp(a x^2 / 2)."""
    return (0.5 * n * math.log(a)
            + 0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
            + 0.5 * a * x * x)


def bound_check(n: int, a: float, x):
    """True iff |H_n(a, x)| <= a^{n/2} sqrt(2^n n!) exp(a x^2 / 2); elementwise
    for an array x."""
    _check_args(n, a)
    h = np.abs(_hermite_ld(n, a, x))
    with np.errstate(divide="ignore"):      # h == 0 gives log -inf: within the bound
        log_h = np.log(h).astype(float)
    return log_h <= hermite_bound(n, a, np.asarray(x, dtype=float)) * (1.0 + 1e-14) + 1e-14


def generating_operator_residual(S: np.ndarray, a: float, x: float,
                                 phi: np.ndarray, N: int) -> float:
    """Euclidean norm of sum_{n<=N} H_n(a,x) S^n phi / n! - exp(-a(S^2-2xS)) phi.

    S must be real symmetric; the target side is evaluated through the
    eigendecomposition of S, so for finite matrices the residual decays to
    round-off once N clears the series' turning point.
    """
    _check_args(0, a)
    S = np.asarray(S, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"S must be square, got shape {S.shape}")
    if phi.shape != (S.shape[0],):
        raise ValueError(f"phi has shape {phi.shape}, expected ({S.shape[0]},)")
    if not np.allclose(S, S.T, atol=1e-12 * max(1.0, float(np.abs(S).max()))):
        raise ValueError("S must be symmetric")

    lam, Q = np.linalg.eigh(S)
    target = Q @ (np.exp(-a * (lam**2 - 2.0 * x * lam)) * (Q.T @ phi))

    # c_n = H_n(a, x)/n! obeys c_{n+1} = (2a/(n+1)) (x c_n - c_{n-1})
    c_prev = 1.0
    c = 2.0 * a * x
    acc = phi.copy()          # n = 0
    vec = S @ phi             # S^1 phi
    acc = acc + c * vec
    for n in range(1, N):
        c, c_prev = (2.0 * a / (n + 1)) * (x * c - c_prev), c
        vec = S @ vec
        acc = acc + c * vec
    return float(np.linalg.norm(acc - target))
