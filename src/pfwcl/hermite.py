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
runs these identities as the ``pfwcl hermite-check`` report, on the standard
library alone: lists of floats, ``math.fsum`` dot products and ``jacobi_eigh``.
"""

from __future__ import annotations

import itertools
import math
import random

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


def _normalized(a: float, x: float, N: int) -> list[float]:
    """psi_0 .. psi_N at x: psi_{n+1} = sqrt(2a/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}."""
    psi = [0.0, 1.0]                        # psi[0] is psi_{-1} = 0
    for n in range(N):
        psi.append(math.sqrt(2.0 * a / (n + 1)) * x * psi[n + 1] - math.sqrt(n / (n + 1)) * psi[n])
    return psi[1:]


def _within_bound(psi: float, a: float, x: float) -> bool:     # log 0 = -inf is within
    return psi == 0.0 or math.log(abs(psi)) <= 0.5 * a * x * x * (1.0 + 1e-14) + 1e-14


def bound_check(n: int, a: float, x: float) -> bool:
    """True iff |H_n(a, x)| <= a^{n/2} sqrt(2^n n!) exp(a x^2 / 2), that is
    log|psi_n| <= a x^2 / 2."""
    _check_args(n, a)
    return _within_bound(_normalized(a, x, n)[n], a, x)


def generating_function_residual(a: float, x: float, t: float, N: int) -> float:
    """| sum_{n<=N} H_n(a,x) t^n / n!  -  exp(2 a t x - a t^2) |."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return generating_operator_residual([[float(t)]], a, x, [1.0], N)


def _dot(u, v) -> float:
    return math.fsum(p * q for p, q in zip(u, v))


def generating_operator_residual(S, a: float, x: float, phi, N: int) -> float:
    """Euclidean norm of sum_{n<=N} H_n(a,x) S^n phi / n! - exp(-a(S^2-2xS)) phi,
    S a nested sequence (its rows) and phi a sequence of floats.

    S must be symmetric, |S_ij - S_ji| <= 1e-12 max(1, max|S|); both sides use its
    symmetric part (the target through ``jacobi_eigh``, which reads one triangle),
    so the residual decays to round-off once N clears the series' turning point.
    The series runs as sum_n psi_n v_n with v_n = (sqrt(2a) S)^n phi / sqrt(n!).
    """
    _check_args(0, a)
    S, phi = [[float(v) for v in row] for row in S], [float(v) for v in phi]
    m = len(phi)
    if len(S) != m or any(len(row) != m for row in S):
        raise ValueError(f"S must be square of order len(phi) = {m}")
    tol = 1e-12 * max([1.0] + [abs(v) for row in S for v in row])
    if not all(S[i][j] == S[j][i] or abs(S[i][j] - S[j][i]) <= tol
               for i in range(m) for j in range(i)):
        raise ValueError("S must be symmetric")
    S = [[0.5 * (S[i][j] + S[j][i]) for j in range(m)] for i in range(m)]

    values, vectors = jacobi_eigh(S)           # vectors[i]: the vector of values[i]
    weights = [math.exp(-a * (lam * lam - 2.0 * x * lam)) * _dot(v, phi)
               for lam, v in zip(values, vectors)]
    psi, vec, acc = _normalized(a, x, N), phi, phi     # n = 0
    for n in range(N):
        c = math.sqrt(2.0 * a / (n + 1))
        vec = [c * _dot(row, vec) for row in S]
        acc = [s + psi[n + 1] * v for s, v in zip(acc, vec)]
    return math.sqrt(math.fsum((s - _dot(column, weights)) ** 2
                               for s, column in zip(acc, zip(*vectors))))


def _bound_grid():
    """(n, a, x, within the bound) for n <= 40, a in (0.25, 1, 4) and x_k = -5.0 + k
    delta, delta = (-5.0 + 0.1) + 5.0, as np.arange(-5.0, 5.0 + 1e-9, 0.1) fills
    it: one psi_0 .. psi_40 recurrence per (a, x)."""
    for a, k in itertools.product((0.25, 1.0, 4.0), range(101)):
        x = -5.0 + k * ((-5.0 + 0.1) + 5.0)
        for n, psi in enumerate(_normalized(a, x, 40)):
            yield n, a, x, _within_bound(psi, a, x)


def invariant_suite(seed: int) -> list[dict]:
    """The ``hermite-check`` checks: the generating function, the growth bound
    on a grid, the recurrence against the explicit sum, and the generating
    operator on an 8 x 8 symmetric S and a vector phi drawn from ``seed``."""
    def check(name, value, threshold):
        return {"name": name, "value": value, "threshold": threshold, "passed": value <= threshold}

    # the last failure in (n, a, x) order
    worst = max(([n, a, x] for n, a, x, ok in _bound_grid() if not ok), default=None)
    grid = itertools.product((0, 1, 5, 17, 33, 48, 60), (0.25, 1.0, 3.5, 10.0),
                             (-10.0, -4.4, -1.0, 0.0, 0.3, 2.9, 7.7, 10.0))
    gaps = [abs(r - e) / max(abs(r), abs(e), 1e-300)
            for r, e in ((hermite(*nax), hermite_explicit(*nax)) for nax in grid)]
    # the standard library's Mersenne Twister: the same draws on every Python version
    draw = random.Random(seed).random
    raw = [[draw() - 0.5 for _ in range(8)] for _ in range(8)]
    S = [[0.5 * (raw[i][j] + raw[j][i]) for j in range(8)] for i in range(8)]
    scale = 2.0 / max(abs(value) for value in jacobi_eigh(S)[0])     # spectral radius 2
    phi = [draw() - 0.5 for _ in range(8)]
    return [check("generating_function_residual",
                  generating_function_residual(0.5, 0.3, 0.7, 60), 1e-12),
            {"name": "bound_grid", "value": worst, "threshold": None, "passed": worst is None},
            check("recurrence_vs_explicit", max(gaps), 1e-12),
            check("generating_operator_residual", generating_operator_residual(
                [[v * scale for v in row] for row in S], 0.25, 0.4, phi, 80), 1e-10)]
