"""Generalized Hermite polynomials H_n(a, x) and their generating operator.

H_n(a, x) = (-1)^n e^{a x^2} (d/dx)^n e^{-a x^2}; H_n(1, .) is the standard
(physicists') Hermite polynomial and H_n(a, x) = a^{n/2} H_n(1, sqrt(a) x).
Combining that scaling with the classical recurrence gives

    H_{k+1}(a, x) = 2 a x H_k(a, x) - 2 a k H_{k-1}(a, x),

since a^{(k+1)/2} H_{k+1}(1, y) = 2 a x * a^{k/2} H_k(1, y)
- 2 k a * a^{(k-1)/2} H_{k-1}(1, y) at y = sqrt(a) x.

Doubles are dyadic rationals, so ``hermite`` (the recurrence) and
``hermite_explicit`` (the explicit sum) both run exactly in Python integers
and round once: they return the correctly rounded H_n(a, x) on every platform
and agree bit for bit.  The growth bound and the generating series use one
double recurrence for the normalized values

    psi_n = H_n(a, x) / (a^{n/2} sqrt(2^n n!)),   |psi_n| <= e^{a x^2 / 2},

which neither under- nor overflows where H_n/n! would.  ``invariant_suite``
runs these identities as the ``pfwcl hermite-check`` report.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from .jacobi import jacobi_eigh


def _check_args(n: int, a: float) -> None:
    if n < 0 or int(n) != n:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"parameter a must be positive, got {a}")


def _rounded(numerator: int, denominator: int, what: str) -> float:
    """numerator / denominator correctly rounded to a double."""
    try:
        return numerator / denominator
    except OverflowError:
        raise OverflowError(f"{what} does not fit in a double") from None


def hermite(n: int, a: float, x: float) -> float:
    """H_n(a, x) by the three-term recurrence.

    With a = A/D and x = X/E, N_k = H_k(a, x) (DE)^k is an integer and
    N_{k+1} = 2AX N_k - 2k A D E^2 N_{k-1}; the result is N_n / (DE)^n.
    """
    _check_args(n, a)
    (A, D), (X, E) = float(a).as_integer_ratio(), float(x).as_integer_ratio()
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, 2 * A * X * cur - 2 * k * A * D * E * E * prev
    return _rounded(cur, (D * E) ** n, f"H_{n}(a={a}, x={x})")


def hermite_explicit(n: int, a: float, x: float) -> float:
    """H_n(a, x) from the explicit sum over m <= n/2:

        sum_m (-1)^m n! a^{n-m} (2x)^{n-2m} / (m! (n-2m)!).

    Over the common denominator (DE)^n (a = A/D, x = X/E) the m-th term is
    the integer (-1)^m n!/(m! (n-2m)!) A^{n-m} (2X)^{n-2m} D^m E^{2m}, so the
    alternating sum survives the severe cancellation at the corners of the
    working box; this is the in-package cross-check of the recurrence.
    """
    _check_args(n, a)
    (A, D), (X, E) = float(a).as_integer_ratio(), float(x).as_integer_ratio()
    total = 0
    for m in range(n // 2 + 1):
        coeff = math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m))
        total += (-1) ** m * coeff * A ** (n - m) * (2 * X) ** (n - 2 * m) * D ** m * E ** (2 * m)
    return _rounded(total, (D * E) ** n, f"explicit H_{n}(a={a}, x={x})")


def _normalized(a: float, x, N: int) -> np.ndarray:
    """psi_0 .. psi_N, elementwise over x (leading axis: the degree), from

        psi_{n+1} = sqrt(2a/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    psi = np.zeros((N + 2,) + x.shape)      # psi[0] is psi_{-1} = 0
    psi[1] = 1.0
    for n in range(N):
        psi[n + 2] = math.sqrt(2.0 * a / (n + 1)) * x * psi[n + 1] - math.sqrt(n / (n + 1)) * psi[n]
    return psi[1:]


def generating_function_residual(a: float, x: float, t: float, N: int) -> float:
    """| sum_{n<=N} H_n(a,x) t^n / n!  -  exp(2 a t x - a t^2) |."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return generating_operator_residual(np.array([[float(t)]]), a, x, np.ones(1), N)


def bound_check(n: int, a: float, x):
    """True iff |H_n(a, x)| <= a^{n/2} sqrt(2^n n!) exp(a x^2 / 2), that is
    log|psi_n| <= a x^2 / 2; elementwise for an array x."""
    _check_args(n, a)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):      # psi_n == 0 gives log -inf: within the bound
        log_psi = np.log(np.abs(_normalized(a, x, n)[n]))
    return log_psi <= 0.5 * a * x * x * (1.0 + 1e-14) + 1e-14


def generating_operator_residual(S: np.ndarray, a: float, x: float,
                                 phi: np.ndarray, N: int) -> float:
    """Euclidean norm of sum_{n<=N} H_n(a,x) S^n phi / n! - exp(-a(S^2-2xS)) phi.

    S must be symmetric to 1e-12 max|S|; both sides use its symmetric part (the
    target through ``jacobi_eigh``, which reads one triangle), so the residual
    decays to round-off once N clears the series' turning point.  The series runs as
    sum_n psi_n v_n with v_n = (sqrt(2a) S)^n phi / sqrt(n!).  Every product is an
    ``einsum`` in numpy's own loops: no LAPACK or BLAS call.
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
    S = 0.5 * (S + S.T)

    values, vectors = jacobi_eigh(S.tolist())
    lam, Vt = np.array(values), np.array(vectors)       # row i: the vector of lam_i
    weights = np.exp(-a * (lam**2 - 2.0 * x * lam)) * np.einsum("ij,j->i", Vt, phi)
    target = np.einsum("ij,i->j", Vt, weights)

    psi = _normalized(a, x, N)
    vec, acc = phi, phi.copy()          # n = 0
    for n in range(N):
        vec = math.sqrt(2.0 * a / (n + 1)) * np.einsum("ij,j->i", S, vec)
        acc = acc + psi[n + 1] * vec
    acc -= target
    return math.sqrt(float(np.einsum("i,i->", acc, acc)))


def invariant_suite(seed: int) -> list[dict]:
    """The ``hermite-check`` checks: the generating function, the growth bound
    on a grid, the recurrence against the explicit sum, and the generating
    operator on an 8 x 8 symmetric S and a vector phi drawn from ``seed``."""
    def check(name, value, threshold):
        return {"name": name, "value": value, "threshold": threshold,
                "passed": value <= threshold}

    worst, xs = None, np.arange(-5.0, 5.0 + 1e-9, 0.1)
    for n, a in itertools.product(range(41), (0.25, 1.0, 4.0)):
        ok = bound_check(n, a, xs)
        if not ok.all():
            worst = [n, a, float(xs[~ok][-1])]
    grid = itertools.product((0, 1, 5, 17, 33, 48, 60), (0.25, 1.0, 3.5, 10.0),
                             (-10.0, -4.4, -1.0, 0.0, 0.3, 2.9, 7.7, 10.0))
    gaps = [abs(r - e) / max(abs(r), abs(e), 1e-300)
            for r, e in ((hermite(*nax), hermite_explicit(*nax)) for nax in grid)]
    # the standard library's Mersenne Twister: the same draws on every Python
    # version, and no numpy.random import
    draw = random.Random(seed).random
    raw = np.array([draw() - 0.5 for _ in range(64)]).reshape(8, 8)
    S = 0.5 * (raw + raw.T)
    values = jacobi_eigh(S.tolist())[0]
    S *= 2.0 / max(-values[0], values[-1])
    phi = np.array([draw() - 0.5 for _ in range(8)])
    return [check("generating_function_residual",
                  generating_function_residual(0.5, 0.3, 0.7, 60), 1e-12),
            {"name": "bound_grid", "value": worst, "threshold": None, "passed": worst is None},
            check("recurrence_vs_explicit", max(gaps), 1e-12),
            check("generating_operator_residual",
                  generating_operator_residual(S, 0.25, 0.4, phi, 80), 1e-10)]
