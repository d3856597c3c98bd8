"""Gauss-Legendre quadrature: one adaptive integrator and one fixed panel rule.

``adaptive_quad`` compares the order-ORDER rule on each panel with the same
rule on its two halves, keeps the two-half value, and splits panels
worst-first until the summed estimate meets max(abs_tol, REL_TOL |value|).
An upper limit b = inf is mapped by t = a + tan(theta), theta in [0, pi/2), so
the integrand must decay at least like 1/t^2.  It serves the outer
t-integrals of the energy module and the cutoff energy E(Lambda).
``gauss_panels`` builds the radial rules and the u_T residual nodes.  Both
take their Gauss-Legendre rules from ``_gl_rule``, Newton's method on the
Legendre recurrence: within rounding of the exact rule, and without
``numpy.polynomial`` or a LAPACK call.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

ORDER = 12
REL_TOL = 1e-11
MAX_PANELS = 4000
INITIAL_PANELS = 4
_EPS = float(np.finfo(float).eps)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, n * (x * p - prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-``order`` Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from cos(pi (k - 1/4) / (n + 1/2)) converges
    quadratically; it stops once no node moves by more than eps_mach.  The
    weights are 2 / ((1 - x^2) P_n'(x)^2), and the rule is symmetrised about 0.
    Read-only, since every caller shares the cached arrays.
    """
    x = np.cos(math.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    step = np.ones_like(x)
    while np.max(np.abs(step)) > _EPS:
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
    dp = _legendre(order, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-``order`` Gauss-Legendre nodes and weights on consecutive panels."""
    x, w = _gl_rule(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def _panel_value(f, lo, hi, x, w):
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(0.5 * (lo + hi) + half * x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(f"integrand returned non-finite values on [{lo!r}, {hi!r}]")
    return half * float(vals @ w)


def _tan_map(f, a: float):
    """theta -> f(a + tan theta) (1 + tan^2 theta), from [0, pi/2) onto [a, inf)."""
    def mapped(theta):
        s = np.tan(theta)
        return f(a + s) * (1.0 + s * s)
    return mapped


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
                  abs_tol: float = 0.0) -> tuple[float, float]:
    """(integral of ``f`` over [a, b], error estimate); ``b`` may be ``math.inf``.

    Raises :class:`QuadratureError` when MAX_PANELS panels leave the estimate
    above tolerance.
    """
    if not (b > a):
        return 0.0, 0.0
    if b == math.inf:
        f, a, b = _tan_map(f, a), 0.0, 0.5 * math.pi
    x, w = _gl_rule(ORDER)
    heap = []
    counter = itertools.count()   # breaks ties between equal error estimates

    def push(lo, hi, coarse):
        mid = 0.5 * (lo + hi)
        left, right = _panel_value(f, lo, mid, x, w), _panel_value(f, mid, hi, x, w)
        heapq.heappush(heap, (-abs(coarse - left - right), next(counter),
                              lo, hi, left + right, left, right))

    edges = np.linspace(a, b, INITIAL_PANELS + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        push(lo, hi, _panel_value(f, lo, hi, x, w))
    while True:
        total = math.fsum(item[4] for item in heap)
        err_total = math.fsum(-item[0] for item in heap)
        if err_total <= max(abs_tol, REL_TOL * abs(total)):
            return total, err_total
        if len(heap) + 1 > MAX_PANELS:
            raise QuadratureError(f"panel budget {MAX_PANELS} exhausted; error estimate "
                                  f"{err_total:.3e} above target for value {total:.6e}",
                                  residual=err_total)
        _, _, lo, hi, _, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        push(lo, mid, left)
        push(mid, hi, right)
