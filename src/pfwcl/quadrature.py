"""Gauss-Legendre quadrature on the standard library: one adaptive integrator
and one fixed panel rule.

``adaptive_quad`` compares the order-ORDER rule on each panel with the same
rule on its two halves, keeps the two-half value, and splits panels
worst-first until the summed estimate meets max(abs_tol, REL_TOL |value|).
An upper limit b = inf is mapped by t = a + tan(theta), theta in [0, pi/2), so
the integrand must decay at least like 1/t^2.  The integrand takes a list of
nodes and returns a sequence of floats (a list or a numpy array), summed by
``fsum``.  It serves the energy module's t-integrals and E(Lambda).
``gauss_panels`` builds the radial rules and the u_T residual nodes, as lists.
Both take their rules from ``_gl_rule``, Newton's method on the Legendre
recurrence: within rounding of the exact rule.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from functools import lru_cache
from typing import Callable, Sequence

from .errors import QuadratureError

ORDER = 12
REL_TOL = 1e-11
MAX_PANELS = 4000
INITIAL_PANELS = 4
_EPS = sys.float_info.epsilon


def _legendre(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    prev, p = 1.0, x
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, n * (x * p - prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Order-``order`` Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from cos(pi (k - 1/4) / (n + 1/2)) converges
    quadratically; every node steps until none moves by more than eps_mach.
    The weights are 2 / ((1 - x^2) P_n'(x)^2), and the rule is symmetrised
    about 0.  Tuples, since every caller shares the cached rule.
    """
    x = [math.cos(math.pi * (k - 0.25) / (order + 0.5)) for k in range(order, 0, -1)]
    steps = [1.0]
    while max(map(abs, steps)) > _EPS:
        steps = [p / dp for p, dp in (_legendre(order, t) for t in x)]
        x = [t - step for t, step in zip(x, steps)]
    dps = [_legendre(order, t)[1] for t in x]
    w = [2.0 / ((1.0 - t * t) * dp * dp) for t, dp in zip(x, dps)]
    return (tuple(0.5 * (a - b) for a, b in zip(x, reversed(x))),
            tuple(0.5 * (a + b) for a, b in zip(w, reversed(w))))


def gauss_panels(edges: Sequence[float], order: int) -> tuple[list[float], list[float]]:
    """Order-``order`` Gauss-Legendre nodes and weights on consecutive panels."""
    x, w = _gl_rule(order)
    halves = [(lo, 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    return ([lo + h * (1.0 + t) for lo, h in halves for t in x],
            [h * v for _, h in halves for v in w])


def _panel_value(f, lo, hi, x, w):
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    vals = f([mid + half * t for t in x])
    if not all(map(math.isfinite, vals)):
        raise QuadratureError(f"integrand returned non-finite values on [{lo!r}, {hi!r}]")
    return half * math.fsum(map(operator.mul, vals, w))


def _tan_map(f, a: float):
    """theta -> f(a + tan theta) (1 + tan^2 theta), from [0, pi/2) onto [a, inf)."""
    def mapped(theta):
        s = list(map(math.tan, theta))
        return [v * (1.0 + t * t) for v, t in zip(f([a + t for t in s]), s)]
    return mapped


def adaptive_quad(f: Callable[[list[float]], Sequence[float]], a: float, b: float, *,
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

    edges = [a + i * ((b - a) / INITIAL_PANELS) for i in range(INITIAL_PANELS)] + [b]
    for lo, hi in zip(edges, edges[1:]):
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
