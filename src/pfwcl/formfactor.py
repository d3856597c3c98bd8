"""Rotation-invariant form factors and their moment integrals.

A measure |phi(k)|^2 dk on R^d with phi rotation invariant and massless
dispersion omega(k) = |k| reduces every d-dimensional integral to a radial
one:

    M_s = int |phi(k)|^2 omega(k)^s dk = S_{d-1} int_0^inf phi(r)^2 r^{s+d-1} dr,

with S_{d-1} = 2 pi^{d/2} / Gamma(d/2).  Discrete measures are lists of atoms
(omega_j, W_j) whose weights already absorb the transversal polarization
average (d-1)/d, so M_s = sum_j W_j omega_j^s directly.

Every radial integral runs on one rule per measure, in floats (``rule()``):
nodes r_k and weights w_k = pf * S_{d-1} * phi(r_k)^2 r_k^{d-1} * (panel
weight), so that pf * int f(omega) |phi|^2 dk = sum_k w_k f(r_k).  Continuum
profiles get order-20 Gauss-Legendre panels on [0, lambda] (sharp cutoff), on
[0, sigma] plus 12 equal panels on [sigma, 9 sigma] (gaussian), and on every
segment of a tabulated profile.  Neighbouring panel edges are at most a factor
4 apart, and a segment at the origin is graded down to 4^-40 of its length,
which resolves the peaks of e^{-tau r} and 1/(t^2 + r^2) near r = 0 for every
tau and t.  A point-mass measure is its own rule: r = omega_j, w = W_j.

The mass shift is delta_m = polarization_factor * M_{-2} and the effective
mass m_eff = 1 + delta_m.  A measure is infrared regular iff M_{-3} < inf.
The four moments are summed once per measure, when its construction checks
them, and ``moment_report`` reads them from there.

The profiles and the measure are immutable records (``_Record``, equal and
hashed by class and fields) and the moment report is a named tuple, so no
class here needs ``dataclasses``.  The subcommands that load this module on
the standard library, ``validate`` (with ``quadrature`` and ``errors``) and
``energy`` (with ``energy`` too), load neither ``dataclasses`` nor the
``inspect``, ``ast``, ``dis`` and ``tokenize`` that its import pulls in.
"""

from __future__ import annotations

import bisect
import math
import numbers
import sys
from collections import namedtuple
from functools import cached_property
from typing import Sequence, Union

from .errors import MeasureError
from .quadrature import gauss_panels

VALID_MOMENT_ORDERS = (-3, -2, -1, 1)
RULE_ORDER = 20
#: panels at the origin reach down to 4^-ORIGIN_LEVELS of the first edge
ORIGIN_LEVELS = 40
#: the smallest first edge b of a segment at the origin: below it the innermost
#: edge b 4^-ORIGIN_LEVELS is not a normal double (below about 1e-300 it is 0)
MIN_ORIGIN_EDGE = sys.float_info.min * 4.0 ** ORIGIN_LEVELS
#: gaussian profiles are cut at GAUSSIAN_CUT sigma (|phi|^2 < 1e-35 beyond)
GAUSSIAN_CUT = 9.0
GAUSSIAN_TAIL_PANELS = 12
MIN_SEGMENT_PANELS = 4


class _Record:
    """An immutable value: ``__init__`` sets the ``_fields`` (through ``vars``),
    after which none can be assigned; equal to, and hashed as, a record of its
    own class with equal fields."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class SharpCutoff(_Record):
    """phi(r) = 1 for r <= lam, 0 beyond (ultraviolet cutoff indicator)."""
    _fields = ("lam",)
    discrete = False
    nonzero_at_origin = True

    def __init__(self, lam: float):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise MeasureError(f"sharp cutoff needs lambda > 0, got {lam}")
        _check_origin_edge(lam, "profile.lambda")
        vars(self).update(lam=lam)


class GaussianProfile(_Record):
    """phi(r) = exp(-r^2 / (2 sigma^2))."""
    _fields = ("sigma",)
    discrete = False
    nonzero_at_origin = True

    def __init__(self, sigma: float):
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise MeasureError(f"gaussian profile needs sigma > 0, got {sigma}")
        _check_origin_edge(sigma, "profile.sigma")
        vars(self).update(sigma=sigma)


class PointMasses(_Record):
    """Atoms (omega_j, W_j); weights carry the (d-1)/d polarization factor."""
    _fields = ("atoms",)
    discrete = True
    nonzero_at_origin = False

    def __init__(self, atoms: Sequence[Sequence[float]] = ()):
        normalized = tuple((float(w), float(W)) for w, W in atoms)
        for omega, weight in normalized:
            if not (omega > 0.0 and math.isfinite(omega)):
                raise MeasureError(f"atom frequency must be positive, got {omega}")
            if not (weight > 0.0 and math.isfinite(weight)):
                raise MeasureError(f"atom weight must be positive, got {weight}")
        vars(self).update(atoms=normalized)


class Tabulated(_Record):
    """Piecewise-linear phi(r) through (r_i, phi_i); zero outside [r_0, r_last]."""
    _fields = ("radii", "values")
    discrete = False

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = [(float(r), float(v)) for r, v in points]
        if len(pts) < 2:
            raise MeasureError("tabulated profile needs at least two points")
        radii = tuple(r for r, _ in pts)
        values = tuple(v for _, v in pts)
        for name, seq in (("radii", radii), ("values", values)):
            if not all(map(math.isfinite, seq)):
                raise MeasureError(f"tabulated {name} must be finite, got {list(seq)}")
        if any(r < 0 for r in radii):
            raise MeasureError("tabulated radii must be nonnegative")
        if any(b <= a for a, b in zip(radii[:-1], radii[1:])):
            raise MeasureError("tabulated radii must be strictly increasing")
        if radii[0] == 0.0:
            _check_origin_edge(radii[1], "profile.points[1] radius")
        if any(b / a == math.inf for a, b in zip(radii, radii[1:]) if a > 0.0):
            raise MeasureError(f"profile.points radii overflow r_(i+1) / r_i, got {list(radii)}")
        vars(self).update(radii=radii, values=values)

    def __call__(self, r: float) -> float:
        """phi(r), as ``numpy.interp(r, radii, values, left=0, right=0)``."""
        x, y = self.radii, self.values
        j = bisect.bisect_right(x, r) - 1
        if not 0 <= j < len(x) - 1:
            return y[-1] if r == x[-1] else 0.0
        return (y[j + 1] - y[j]) / (x[j + 1] - x[j]) * (r - x[j]) + y[j]

    @property
    def nonzero_at_origin(self) -> bool:
        return self.radii[0] == 0.0 and self.values[0] != 0.0


def _check_origin_edge(b: float, field: str) -> None:
    """Refuse a first edge b of a segment at the origin below MIN_ORIGIN_EDGE."""
    if b < MIN_ORIGIN_EDGE:
        raise MeasureError(f"{field} must be >= {MIN_ORIGIN_EDGE:.3g} (the rule's innermost "
                           f"panel edge b 4^-{ORIGIN_LEVELS} underflows), got {b}")


Profile = Union[SharpCutoff, GaussianProfile, PointMasses, Tabulated]


class RadialMeasure(_Record):
    """A rotation-invariant form-factor measure in d spatial dimensions."""
    _fields = ("dimension", "profile", "polarization_factor")

    def __init__(self, dimension: int, profile: Profile):
        d = dimension
        if not (isinstance(d, numbers.Real) and math.isfinite(d) and int(d) == d and d >= 2):
            raise MeasureError(f"dimension must be an integer >= 2, got {d}")
        if not isinstance(profile, (SharpCutoff, GaussianProfile, PointMasses, Tabulated)):
            raise MeasureError(f"unknown profile type {type(profile).__name__}")
        # a discrete measure has the polarization factor absorbed into its weights
        pol = 1.0 if profile.discrete else (int(d) - 1) / int(d)
        vars(self).update(dimension=int(d), profile=profile, polarization_factor=pol)
        _check_square_integrability(self)

    @property
    def is_discrete(self) -> bool:
        return self.profile.discrete

    def sphere_area(self) -> float:
        d = self.dimension
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """``_float_rule`` as read-only numpy arrays (r_k, w_k): w @ f(r)."""
        return self._rule

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        r, w = (np.array(part, dtype=float) for part in self._float_rule)
        r.flags.writeable = w.flags.writeable = False
        return r, w

    @cached_property
    def _moments(self) -> MomentReport:
        """``moment_report``, summed once: construction checks its moments."""
        m_p1, m_m1, m_m2, m_m3 = (moment(self, s) for s in (1, -1, -2, -3))
        delta_m = self.polarization_factor * m_m2
        return MomentReport(m_plus1=m_p1, m_minus1=m_m1, m_minus2=m_m2, m_minus3=m_m3,
                            ir_regular=math.isfinite(m_m3), delta_m=delta_m, m_eff=1.0 + delta_m)

    @cached_property
    def _float_rule(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(r_k, w_k) with pf * int f(omega) |phi|^2 dk = sum_k w_k f(r_k), in floats."""
        p = self.profile
        if isinstance(p, PointMasses):
            return tuple(a[0] for a in p.atoms), tuple(a[1] for a in p.atoms)
        # consecutive segments share an edge, so one edge list holds their panels
        if isinstance(p, SharpCutoff):
            edges, phi2 = _panel_edges(0.0, p.lam), lambda r: 1.0
        elif isinstance(p, GaussianProfile):
            edges = _panel_edges(0.0, p.sigma) + _linspace(
                p.sigma, GAUSSIAN_CUT * p.sigma, GAUSSIAN_TAIL_PANELS)[1:]
            phi2 = lambda r: math.exp(-(r / p.sigma) ** 2)
        else:
            edges = p.radii[:1] + tuple(e for a, b in zip(p.radii, p.radii[1:])
                                        for e in _panel_edges(a, b)[1:])
            phi2 = lambda r: _or_inf(pow, p(r), 2)
        r, w = gauss_panels(edges, RULE_ORDER)
        pf, area, k = self.polarization_factor, self.sphere_area(), self.dimension - 1
        return tuple(r), tuple(wk * (phi2(rk) * pf * area * _or_inf(pow, rk, k))
                               for rk, wk in zip(r, w))


def _effective_component_count(ff: RadialMeasure) -> int:
    # discrete measures use the per-component scalar convention
    return 1 if ff.is_discrete else ff.dimension


def _or_inf(fn, *args) -> float:
    """fn(*args), or inf where numpy gives inf: overflow in pow/fsum, 0.0 ** -n."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _linspace(a: float, b: float, panels: int) -> list[float]:
    """``numpy.linspace(a, b, panels + 1)``: a + i (b - a) / panels, b pinned."""
    step = (b - a) / panels
    return [a + i * step for i in range(panels)] + [b]


def _panel_edges(a: float, b: float) -> list[float]:
    """Edges on [a, b] at most a factor 4 apart, at least MIN_SEGMENT_PANELS panels.

    For a = 0 the edges run geometrically from b 4^-ORIGIN_LEVELS to b and one
    more panel reaches the origin, as ``numpy.geomspace`` (endpoints pinned).
    """
    lo = a if a > 0.0 else b * 4.0 ** -ORIGIN_LEVELS
    count = max(MIN_SEGMENT_PANELS, math.ceil(0.5 * math.log2(b / lo)))
    logs = _linspace(math.log10(lo), math.log10(b), count)
    edges = [lo] + [10.0 ** v for v in logs[1:-1]] + [b]
    return edges if a > 0.0 else [0.0] + edges


def _origin_exponent_divergent(ff: RadialMeasure, s: int) -> bool:
    """Analytic endpoint test: does int_0 phi(r)^2 r^{s+d-1} dr diverge?

    Only relevant when phi does not vanish near r = 0; the radial integrand
    behaves like r^{s+d-1} there, which is integrable iff s + d > 0.
    """
    return ff.profile.nonzero_at_origin and s + ff.dimension <= 0


def moment(ff: RadialMeasure, s: int) -> float:
    """M_s = int |phi|^2 omega^s dk; returns math.inf on divergence."""
    if s not in VALID_MOMENT_ORDERS:
        raise ValueError(f"moment order must be one of {VALID_MOMENT_ORDERS}, got {s}")
    if _origin_exponent_divergent(ff, s):
        return math.inf
    # a zero weight (phi = 0, or underflow) against an overflowing r^s is no term
    terms = (wk * _or_inf(pow, rk, s) for rk, wk in zip(*ff._float_rule) if wk != 0.0)
    return _or_inf(math.fsum, terms) / ff.polarization_factor


MomentReport = namedtuple("MomentReport", ("m_plus1", "m_minus1", "m_minus2", "m_minus3",
                                           "ir_regular", "delta_m", "m_eff"))


def moment_report(ff: RadialMeasure) -> MomentReport:
    """The four standing moments, delta_m, m_eff and the IR flag.

    Summed once per measure, when its construction checks them.
    """
    return ff._moments


_ASSUMPTION_LABELS = {
    1: "sqrt(omega)*phi not square-integrable",
    -1: "phi/sqrt(omega) not square-integrable",
    -2: "phi/omega not square-integrable",
}


def _check_square_integrability(ff: RadialMeasure) -> None:
    """Construction-time guard: M_{+1}, M_{-1}, M_{-2} must be finite.

    The analytic endpoint test catches a divergence at the origin; the sums on
    the radial rule (built here once, about 0.2 ms) catch weights that
    overflow a double.  For sharp and gaussian profiles they must also be
    normal doubles, which underflow on the rule cannot have moved by eps.
    """
    bad = [s for s in (1, -1, -2) if _origin_exponent_divergent(ff, s)]
    if bad:
        reasons = "; ".join(_ASSUMPTION_LABELS[s] for s in bad)
        raise MeasureError(
            f"form factor violates the standing integrability conditions: {reasons}")
    report = ff._moments
    moments = {1: report.m_plus1, -1: report.m_minus1, -2: report.m_minus2}
    bad = [s for s, m in moments.items() if not math.isfinite(m)]
    if bad:
        raise MeasureError(f"profile moments M_s, s in {bad}, must be finite, but they "
                           "overflow a double on the radial rule")
    p = ff.profile
    if isinstance(p, (SharpCutoff, GaussianProfile)):
        bad = [s for s, m in moments.items() if not (
            m >= sys.float_info.min and _underflow_bound(ff, s) <= sys.float_info.epsilon * m)]
        if bad:
            field, scale = (("profile.lambda", p.lam) if isinstance(p, SharpCutoff)
                            else ("profile.sigma", p.sigma))
            raise MeasureError(f"{field} = {scale} is too small: the profile moments M_s, s in "
                               f"{bad}, are below the normal range of a double or lose more "
                               "than eps to underflow on the radial rule")


def _underflow_bound(ff: RadialMeasure, s: int) -> float:
    """A bound on the part of M_s that underflow hides on a rule where phi > 0
    at every node (sharp and gaussian): a weight below the normal range hides
    a term below float_info.min r^s, a term below it at most float_info.min."""
    tiny, bounds = sys.float_info.min, []
    for rk, wk in zip(*ff._float_rule):
        rs = _or_inf(pow, rk, s)
        if wk < tiny or wk * rs < tiny:
            bounds.append(tiny * max(1.0, rs))
    return _or_inf(math.fsum, bounds) / ff.polarization_factor


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in docs/measure_schema.md)

def measure_to_json(ff: RadialMeasure) -> dict:
    p = ff.profile
    if isinstance(p, SharpCutoff):
        profile = {"type": "sharp", "lambda": p.lam}
    elif isinstance(p, GaussianProfile):
        profile = {"type": "gaussian", "sigma": p.sigma}
    elif isinstance(p, PointMasses):
        profile = {"type": "point_masses",
                   "atoms": [{"omega": w, "weight": W} for w, W in p.atoms]}
    else:
        profile = {"type": "tabulated",
                   "points": [[r, v] for r, v in zip(p.radii, p.values)]}
    return {"dimension": ff.dimension, "profile": profile}


def _require_keys(obj: dict, required: set, context: str) -> None:
    extra = set(obj) - required
    if extra:
        raise MeasureError(f"unknown keys {sorted(extra)} in {context}")
    missing = required - set(obj)
    if missing:
        raise MeasureError(f"missing keys {sorted(missing)} in {context}")


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise MeasureError(f"{field} must be a number, got {value!r}") from None


def _pairs(items, field: str, keys: tuple[str, str] | None = None) -> list:
    """``items`` as float pairs: each a two-element list or, given ``keys``, an
    object with exactly those keys; a malformed entry names field[i]."""
    if not isinstance(items, (list, tuple)):
        raise MeasureError(f"{field} must be a list, got {items!r}")
    pairs = []
    for i, item in enumerate(items):
        where = f"{field}[{i}]"
        if keys is not None and isinstance(item, dict):
            _require_keys(item, set(keys), where)
            item = [item[k] for k in keys]
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise MeasureError(f"{where} must be a pair of numbers, got {item!r}")
        pairs.append((_number(item[0], where), _number(item[1], where)))
    return pairs


def measure_from_json(obj: dict) -> RadialMeasure:
    if not isinstance(obj, dict):
        raise MeasureError("measure must be a JSON object")
    _require_keys(obj, {"dimension", "profile"}, "measure")
    prof = obj["profile"]
    if not isinstance(prof, dict) or "type" not in prof:
        raise MeasureError("profile must be an object with a 'type' key")
    kind = prof["type"]
    if kind == "sharp":
        _require_keys(prof, {"type", "lambda"}, "sharp profile")
        profile = SharpCutoff(_number(prof["lambda"], "profile.lambda"))
    elif kind == "gaussian":
        _require_keys(prof, {"type", "sigma"}, "gaussian profile")
        profile = GaussianProfile(_number(prof["sigma"], "profile.sigma"))
    elif kind == "point_masses":
        _require_keys(prof, {"type", "atoms"}, "point_masses profile")
        profile = PointMasses(_pairs(prof["atoms"], "profile.atoms", ("omega", "weight")))
    elif kind == "tabulated":
        _require_keys(prof, {"type", "points"}, "tabulated profile")
        profile = Tabulated(_pairs(prof["points"], "profile.points"))
    else:
        raise MeasureError(f"unknown profile type {kind!r}")
    return RadialMeasure(dimension=obj["dimension"], profile=profile)
