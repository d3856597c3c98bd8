"""Adaptive panel-based Gauss-Legendre quadrature on vectorized integrands.

The error estimate per panel compares the order-``g`` rule on the panel with
the same rule on its two halves; the refined (two-half) value is kept.  Panels
are split worst-first until the summed error estimate meets the target.
Unbounded upper limits are mapped by u = 1/r; whole-line integrals of even
integrands are folded onto [0, inf) or mapped by t = tan(theta).

The package uses it for two jobs only: the outer t-integrals over G and
log(1 + kappa^2 rho_hat) in the energy module, and the independent E(Lambda)
route ``cutoff_energy_3d``.  Integrals against a form-factor measure run on
the measure's fixed radial rule instead (``RadialMeasure.rule``).
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

@lru_cache(maxsize=None)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_value(f, lo, hi, x, w):
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * x
    vals = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(
            f"integrand returned non-finite values on [{lo!r}, {hi!r}]")
    return half * float(vals @ w)


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-11,
    abs_tol: float = 0.0,
    order: int = 12,
    max_panels: int = 4000,
    initial_panels: int = 4,
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval [a, b].

    Returns ``(value, error_estimate)``.  Raises :class:`QuadratureError` when
    the panel budget is exhausted above tolerance.
    """
    if not (b > a):
        return 0.0, 0.0
    x, w = _gl_rule(order)

    def make(lo, hi, coarse):
        mid = 0.5 * (lo + hi)
        left = _panel_value(f, lo, mid, x, w)
        right = _panel_value(f, mid, hi, x, w)
        err = abs(coarse - left - right)
        # heap entries: (-err, counter, lo, hi, value, left, right)
        return err, lo, hi, left + right, left, right

    heap = []
    counter = 0
    edges = np.linspace(a, b, initial_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        coarse = _panel_value(f, lo, hi, x, w)
        err, lo, hi, val, lv, rv = make(lo, hi, coarse)
        heapq.heappush(heap, (-err, counter, lo, hi, val, lv, rv))
        counter += 1

    while True:
        total = math.fsum(item[4] for item in heap)
        err_total = math.fsum(-item[0] for item in heap)
        if err_total <= max(abs_tol, rel_tol * abs(total)):
            return total, err_total
        if len(heap) + 1 > max_panels:
            raise QuadratureError(
                f"panel budget {max_panels} exhausted; error estimate "
                f"{err_total:.3e} above target for value {total:.6e}",
                residual=err_total)
        _neg_err, _, lo, hi, _, lv, rv = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for sublo, subhi, coarse in ((lo, mid, lv), (mid, hi, rv)):
            err, l0, h0, val, l2, r2 = make(sublo, subhi, coarse)
            heapq.heappush(heap, (-err, counter, l0, h0, val, l2, r2))
            counter += 1


def adaptive_quad_0inf(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    split: float = 1.0,
    rel_tol: float = 1e-11,
    abs_tol: float = 0.0,
    order: int = 12,
    max_panels: int = 4000,
) -> tuple[float, float]:
    """Integrate ``f`` over [0, inf); the tail beyond ``split`` uses u = 1/r."""
    v1, e1 = adaptive_quad(f, 0.0, split, rel_tol=rel_tol, abs_tol=abs_tol,
                           order=order, max_panels=max_panels)

    def tail(u):
        u = np.asarray(u, dtype=float)
        return f(1.0 / u) / u**2

    v2, e2 = adaptive_quad(tail, 0.0, 1.0 / split, rel_tol=rel_tol,
                           abs_tol=abs_tol, order=order,
                           max_panels=max_panels)
    return v1 + v2, e1 + e2


def adaptive_quad_sym_line(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    rel_tol: float = 1e-11,
    abs_tol: float = 0.0,
    order: int = 12,
    max_panels: int = 4000,
) -> tuple[float, float]:
    """Integrate an even integrand over the whole line via t = tan(theta).

    Computes 2 * int_0^inf f(t) dt as an integral over theta in [0, pi/2);
    ``f`` must decay at least like 1/t^2 so the mapped integrand stays bounded.
    """

    def mapped(theta):
        t = np.tan(theta)
        return f(t) * (1.0 + t * t)

    val, err = adaptive_quad(mapped, 0.0, 0.5 * math.pi, rel_tol=rel_tol,
                             abs_tol=abs_tol, order=order,
                             max_panels=max_panels)
    return 2.0 * val, 2.0 * err
