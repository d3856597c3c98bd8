"""Truncated multi-mode bosonic Fock space and the fiber Hamiltonians.

A desk-scale caricature of the quantized field: one scalar polarization
component, M discrete modes (omega_j, W_j, q_j) with couplings
g_j = sqrt(W_j / omega_j), occupation numbers truncated by
sum_j n_j <= N_tot.  On that basis

    H_f = sum_j omega_j n_j           (diagonal)
    P_f = sum_j q_j n_j               (diagonal; q_j are free scan labels)
    A   = sum_j g_j (a_j + a_j^T) / sqrt(2)

and the interpolating fiber Hamiltonian

    H_kappa(p, eps) = (1/2)(p - eps P_f - kappa A)^2 + kappa^2 H_f,

with eps = 0 the dipole fiber and eps = 1 the full fiber.  The weights W_j
match the PointMasses convention of the formfactor module, so all continuum
cross-checks line up: the exact ground energy of (1/2) A^2 + H_f is the
rank-one Bogoliubov value (1/2) sum_i (mu_i - omega_i) with mu_i^2 the
eigenvalues of diag(omega^2) + v v^T, v_j = sqrt(W_j), from the secular-equation
solver the Wiener-Hopf realization shares (``normalmodes``).

``build_basis`` checks its modes (``params.mode``) and returns the one
Fock-space object, ``FockBasis``, with its operators built on first read: H_f
and P_f as diagonals, the Bogoliubov ground vector, and A, a gather table over
the basis ranks and the one stored operator table (the ladder factors it is
built from are computed on read).  H_kappa(p, eps) applies B = p - eps P_f -
kappa A twice, kappa as a scalar, so no Hamiltonian copies A.  Every ground
state comes from ``ground_state``: one locally optimal conjugate-gradient solver
(``_lobpcg``) from a seeded start vector, preconditioned by the inverse of H's
exact diagonal, with a residual check.  The semigroup exp(-T(H - c)) acts as a
Chebyshev series with modified Bessel coefficients (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 1984), and the same solver finds its operator norm, so no dimension
has a dense-size cliff.  The module needs numpy only, not ``numpy.random``, and
makes no LAPACK or BLAS call (the 3 x 3 projected problems run in Python floats,
``jacobi``), so the ``fock`` output bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import BasisSizeError, NumericalError
from .jacobi import jacobi_eigh
from .normalmodes import merged, secular_roots
from .params import (Mode, checked, count, coupling, finite, full_fiber, list_of, mode,
                     nonnegative, unit_interval)

BASIS_SIZE_GUARD = 200_000
#: the semigroup refuses a horizon whose Bessel series would start Miller's
#: recurrence past this order (the long-horizon tests reach 23,710)
SERIES_ORDER_GUARD = 2**17
EIGEN_RESIDUAL_TOL = 1e-9
EIGEN_MAX_STEPS = 3000
#: ground states stop at a residual of _ROUNDING_FLOOR eps_mach ||H||, the level
#: rounding lets the residual reach
_ROUNDING_FLOOR = 4.0
_EPS = float(np.finfo(float).eps)
BESSEL_TAIL = 1e-17        # Chebyshev-Bessel series end where the coefficients fall below
_LOG_MAX = math.log(np.finfo(float).max)
#: outside exp(+-SMALL_NORM_LEVEL) the entries of X X^T near underflow (or
#: overflow), so the norm is taken on a rescaled X
SMALL_NORM_LEVEL = -300.0


@dataclass(frozen=True, eq=False)
class GatherOperator:
    """A sparse matrix with R entries per row: row i holds weights[r, i] in
    column index[r, i] (zero weights pad short rows), so that
    M v = sum_r weights[r] v[index[r]], one gather and one reduction."""

    index: np.ndarray = field(repr=False)      # (R, dim) int
    weights: np.ndarray = field(repr=False)    # (R, dim) float

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.shape[1], self.index.shape[1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector v; the R terms are added in row order."""
        return np.einsum("rd,rd->d", self.weights, np.take(v, self.index))


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis {n : sum n_j <= N_tot} with a total order, and the
    operators on it, each built on first read.  A is the one stored operator table:
    the ladder factors it is built from are computed on each read of ``ladders``.

    States are ordered by total occupation, then by n_0 descending, then n_1 descending,
    and so on.  In terms of the tail sums s_j = n_j + ... + n_{M-1} that is the
    lexicographic order of (s_0, ..., s_{M-1}), and the position of n is its
    combinatorial-number-system rank sum_j C(s_j + M - 1 - j, M - j), which ``rank`` computes.
    """

    modes: tuple[Mode, ...]
    n_tot: int
    states: np.ndarray = field(repr=False)      # (dim, M) int array

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def _rank_terms(self) -> np.ndarray:
        """[j, s] -> C(s + M - 1 - j, M - j), the rank term of tail sum s_j = s."""
        M = len(self.modes)
        return np.array([[math.comb(s + M - 1 - j, M - j) for s in range(self.n_tot + 1)]
                         for j in range(M)], dtype=np.int64)

    def rank(self, occupations: np.ndarray) -> np.ndarray:
        """Positions of the basis states given as rows of ``occupations``
        (each row must lie in the basis; nothing checks it)."""
        tails = np.cumsum(occupations[..., ::-1], axis=-1)[..., ::-1]
        return self._rank_terms[np.arange(len(self.modes)), tails].sum(axis=-1)

    @property
    def ladders(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather tables (index, factor) of the ladder operators, computed on
        each read: row 2j is (a_j^T v)_n = sqrt(n_j) v[rank(n - e_j)], row 2j + 1
        is (a_j v)_n = sqrt(n_j + 1) v[rank(n + e_j)].  A state whose neighbour
        leaves the basis points at itself with factor 0."""
        M = len(self.modes)
        index = np.tile(np.arange(self.dim), (2 * M, 1))
        factor = np.zeros((2 * M, self.dim))
        below_top = self.states.sum(axis=1) < self.n_tot
        for j in range(M):
            for row, step, inside in ((2 * j, -1, self.states[:, j] > 0),
                                      (2 * j + 1, 1, below_top)):
                moved = self.states[inside]
                moved[:, j] += step
                index[row, inside] = self.rank(moved)
                factor[row, inside] = np.sqrt(self.states[inside, j] + max(step, 0))
        return index, factor

    def _diagonal(self, values) -> np.ndarray:
        """sum_j values[j] n_j on every state."""
        return (self.states.astype(float) * np.array(values)).sum(axis=1)

    @cached_property
    def Hf(self) -> np.ndarray:
        return self._diagonal([m.omega for m in self.modes])

    @cached_property
    def Pf(self) -> np.ndarray:
        return self._diagonal([m.momentum for m in self.modes])

    @cached_property
    def A(self) -> GatherOperator:
        """A = sum_j (g_j / sqrt(2)) (a_j^T + a_j), the one stored operator table: the
        ladder table with rows 2j and 2j + 1 scaled by g_j / sqrt(2) >= 0 in place."""
        index, factor = self.ladders
        c = np.array([math.sqrt(m.weight / m.omega) / math.sqrt(2.0) for m in self.modes])
        return GatherOperator(index, np.multiply(np.repeat(c, 2)[:, None], factor, out=factor))

    def m_eff(self) -> float:
        return 1.0 + math.fsum(m.weight / m.omega**2 for m in self.modes)

    @cached_property
    def ground_vector(self) -> np.ndarray:
        """Ground eigenvector of (1/2) A^2 + H_f (kappa-independent)."""
        return ground_state(fiber_hamiltonian(self, 1.0, 0.0, 0.0))[1]


def _modes(modes) -> list[Mode]:
    return checked("modes", list_of(mode), list(modes))


def build_basis(modes, n_tot: int) -> FockBasis:
    """Enumerate multi-indices with total occupation <= n_tot.

    The tail sums n_tot >= s_0 >= ... >= s_{M-1} >= 0 are the size-M multisets
    of {n_tot, ..., 0}: ``itertools.combinations_with_replacement`` lists them
    in descending lexicographic order, so the reversed list is the basis order.
    The dimension is C(M + n_tot, M); a hard guard rejects requests past
    200000 states before any enumeration happens.
    """
    modes, n_tot = _modes(modes), checked("n_tot", count, n_tot)
    M = len(modes)
    dim = math.comb(M + n_tot, M)
    if dim > BASIS_SIZE_GUARD:
        raise BasisSizeError(
            f"basis would hold {dim} states, over the {BASIS_SIZE_GUARD} guard")
    tails = itertools.combinations_with_replacement(range(n_tot, -1, -1), M)
    states = np.fromiter(itertools.chain.from_iterable(tails), np.int64,
                         count=dim * M).reshape(dim, M)[::-1].copy()
    states[:, :-1] -= states[:, 1:]          # n_j = s_j - s_{j+1}
    return FockBasis(modes=tuple(modes), n_tot=n_tot, states=states)


@dataclass(frozen=True, eq=False)
class FiberHamiltonian:
    """scale H_kappa(p, eps) + shift, matrix-free: H v = (1/2) B (B v) + kappa^2 H_f v,
    B = p - eps P_f - kappa A with kappa a scalar, so every H and ``replace`` shares A."""

    basis: FockBasis
    kappa: float
    p: float
    eps: float
    scale: float = 1.0
    shift: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.basis.dim, self.basis.dim

    @cached_property
    def _parts(self):
        """The diagonal of B, A, and the diagonal part scale kappa^2 H_f + shift."""
        diag = self.scale * self.kappa**2 * self.basis.Hf + self.shift
        return self.p - self.eps * self.basis.Pf, self.basis.A, diag

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        D, A, diag = self._parts
        u = A @ v
        u *= -self.kappa
        u += D * v
        out = A @ u
        out *= -self.kappa
        out += D * u
        out *= 0.5 * self.scale
        out += diag * v
        return out

    def diagonal(self) -> np.ndarray:
        """The diagonal of H in closed form: (B^2)_ii = D_i^2 + kappa^2 (A^2)_ii, as A has
        a zero diagonal, and (A^2)_ii = sum_k A_ik^2 = sum_r weights[r, i]^2, as A is
        symmetric with one entry per gather row."""
        D, A, diag = self._parts
        square = np.einsum("rd,rd->d", A.weights, A.weights)            # (A^2)_ii
        return 0.5 * self.scale * (D * D + self.kappa**2 * square) + diag

    def row_sum_bound(self) -> float:
        """Bounds |lambda| for every eigenvalue of H (scale 1, shift 0): the largest row
        sum of (1/2)|B|(|B| 1) + kappa^2 H_f, which dominates that of |H| (Gershgorin)."""
        D, A, _ = self._parts
        absD = np.abs(D)
        row = absD + self.kappa * A.weights.sum(axis=0)     # |B| 1, as kappa A >= 0 entrywise
        return float(np.max(0.5 * (absD * row + self.kappa * (A @ row))
                            + self.kappa**2 * self.basis.Hf))


def fiber_hamiltonian(basis: FockBasis, kappa: float, p: float,
                      eps: float) -> FiberHamiltonian:
    """H_kappa(p, eps) = (1/2)(p - eps P_f - kappa A)^2 + kappa^2 H_f."""
    H = FiberHamiltonian(basis, checked("kappa", coupling, kappa), checked("p", finite, p),
                         checked("eps", unit_interval, eps))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = H.row_sum_bound()
    if not math.isfinite(bound):
        raise ValueError(f"H_kappa(p) overflows a double at kappa = {kappa}, p = {p}")
    return H


@lru_cache(maxsize=None)
def _start_vector(dim: int) -> np.ndarray:
    """Fixed start vector, so iterative eigensolves repeat byte for byte:
    entry i is the i-th draw of ``random.Random(0).random() - 0.5``.

    The standard library's Mersenne Twister gives the same sequence on every
    Python version and platform, and it spares a ``fock`` process the import
    of ``numpy.random`` (about 6 MB of resident memory).  Built once per
    dimension and read-only, since every solve shares it.
    """
    draw = random.Random(0).random
    vector = np.fromiter((draw() - 0.5 for _ in range(dim)), float, count=dim)
    vector.flags.writeable = False
    return vector


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in numpy's own loop: unlike BLAS ddot, which threads long vectors,
    its summation order does not depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    square = _dot(a, a)
    if square == math.inf and (top := float(np.max(np.abs(a)))) < math.inf:
        return top * math.sqrt(_dot(a / top, a / top))   # entries past about 1e154
    return math.sqrt(square)


def ground_state(H: FiberHamiltonian) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (lam, vec) of H by ``_lobpcg`` preconditioned by the
    inverse of H's exact diagonal, from a fixed start vector.  It stops at the
    rounding floor _ROUNDING_FLOOR eps_mach ||H|| of the residual, with
    ||H|| bounded by ``row_sum_bound``, and checks the relative residual
    against EIGEN_RESIDUAL_TOL.

    The solve starts from the seeded random vector, not from ``ground_vector``:
    where p - eps P_f is far from 0 the ground state can be nearly orthogonal
    to the Bogoliubov vector (overlap 1.8e-6 for two modes (1, 1, 0.6) at
    kappa = 0.5, p = 6), and a start there would wait for rounding to seed it.
    """
    precondition = H.diagonal()
    precondition[~(precondition > 0.0)] = 1.0    # H is PSD: a zero diagonal entry is a zero row
    np.divide(1.0, precondition, out=precondition)
    v, Hv = _lobpcg(H.__matmul__, _start_vector(H.shape[0]), precondition,
                    _ROUNDING_FLOOR * _EPS, H.row_sum_bound(), "eigensolver")
    lam = _dot(v, Hv)
    residual = _norm(Hv - lam * v)
    if residual > EIGEN_RESIDUAL_TOL * max(1.0, abs(lam)):
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds {EIGEN_RESIDUAL_TOL:.0e}")
    return lam, v


def _lobpcg(apply, start: np.ndarray, precondition, tol: float, unit: float,
            stage: str) -> tuple[np.ndarray, np.ndarray]:
    """(x, apply(x)) for the unit vector x of the lowest eigenvalue theta of the symmetric
    operator ``apply``, by the locally optimal preconditioned conjugate gradient of
    Knyazev (SIAM J. Sci. Comput. 23, 2001) with one vector.

    Each step is a Rayleigh-Ritz on span{x, p, w}: w = T r the preconditioned
    residual r = apply(x) - theta x (T the diagonal ``precondition``, or 1
    when it is None) and p the last step's update.  The three are kept
    orthonormal, so the projected problem is a 3 x 3 symmetric eigenproblem,
    solved by ``jacobi_eigh`` in Python floats, and apply(x) and apply(p)
    follow by linearity: one product per step.  Every inner product runs in
    numpy's own loop (``einsum``), never in BLAS.  The iteration stops once
    ||r|| <= tol max(unit, |theta|), tested again on a fresh product
    apply(x), since the updated one drifts.  ``stage`` names the failure,
    also that of a non-finite projected matrix, which raises at its step.
    """
    work = np.empty((3, 2, start.size))          # rows x, p, w, each with its image
    x, p = work[0], work[1]
    x[0] = start / _norm(start)
    x[1] = apply(x[0])
    n = 1                                        # rows in use: x, and p once set
    for step in range(EIGEN_MAX_STEPS):
        theta = _dot(*x)
        r = x[1] - theta * x[0]
        if _norm(r) <= tol * max(unit, abs(theta)):
            x[1] = apply(x[0])
            theta = _dot(*x)
            r = x[1] - theta * x[0]
            if _norm(r) <= tol * max(unit, abs(theta)):
                return x[0].copy(), x[1].copy()
        w = work[n]
        w[0] = r if precondition is None else precondition * r
        for _ in range(2):                       # modified Gram-Schmidt, twice is enough
            for b in work[:n, 0]:
                w[0] -= _dot(b, w[0]) * b
        w[0] /= _norm(w[0])
        w[1] = apply(w[0])
        projected = np.einsum("id,jd->ij", work[:n + 1, 0], work[:n + 1, 1])
        try:
            c = jacobi_eigh((0.5 * (projected + projected.T)).tolist())[1][0]
        except NumericalError as err:
            raise NumericalError(f"{stage} failed at step {step}: {err}") from None
        p[...] = np.einsum("i,ijd->jd", c[1:], work[1:n + 1])
        x *= c[0]
        x += p
        x /= _norm(x[0])
        p -= _dot(x[0], p[0]) * x                # keep p orthogonal to x
        scale = _norm(p[0])
        p /= scale or 1.0                        # a vanished p drops out: n = 1
        n = 2 if scale > 0.0 else 1
    raise NumericalError(f"{stage} failed: no convergence in {EIGEN_MAX_STEPS} steps")


def bogoliubov_energy(modes) -> float:
    """Exact ground energy (1/2) sum_i (mu_i - omega_i) of (1/2) A^2 + H_f, with
    mu - omega from the secular-equation solver ``normalmodes.secular_roots``
    that the Wiener-Hopf realization shares: nothing cancels, so stiff atoms keep
    full relative accuracy.  The continuum-side counterpart is the energy-module
    ground_energy at the same PointMasses measure."""
    omega, W = merged((m.omega, m.weight) for m in _modes(modes))
    return 0.5 * float(np.sum(secular_roots(omega, W)[1])) if len(omega) else 0.0


def _chebyshev_sum(twice_S, coeffs, v) -> np.ndarray:
    """sum_k coeffs[k] T_k(S) v by the recurrence y_0 = v, y_1 = S v,
    y_{k+1} = 2 S y_k - y_{k-1}; ``twice_S`` is the operator 2 S."""
    out = coeffs[0] * v
    if len(coeffs) > 1:
        prev, cur = v, 0.5 * (twice_S @ v)
        out += (term := coeffs[1] * cur)         # term: the scratch for c_k y_k
        for c in coeffs[2:]:
            nxt = twice_S @ cur
            nxt -= prev
            prev, cur = cur, nxt
            out += np.multiply(c, cur, out=term)
    return out


def _bessel_coefficients(z: float) -> np.ndarray:
    """(2 - delta_k0) e^{-z} I_k(z) for k = 0 .. d - 1, where past order d - 1
    every term stays below BESSEL_TAIL.

    Miller's backward recurrence (DLMF 3.6(iii)) on the ratios rho_k = I_k / I_{k-1}
    (Gautschi, SIAM Rev. 9, 1967): from rho_{N+1} = 0 at N = ``_miller_start(z)``,
    past which the Debye exponent is < 2 log BESSEL_TAIL, rho_k = 1 / (2k / z + rho_{k+1})
    falls onto the minimal solution, whose running product is I_k / I_0, and
    e^{-z}(I_0 + 2 sum I_k) = 1 fixes its scale.  Every ratio lies in [0, 1], so
    nothing overflows in doubles, and each step damps the error it inherits.
    """
    if z == 0.0:
        return np.ones(1)
    n = _miller_start(z)
    c = np.empty(n + 1)
    c[0], rho = 1.0, 0.0                                      # I_0 / I_0, rho_{N+1}
    for k in range(n, 0, -1):
        rho = 1.0 / (2.0 * k / z + rho)
        c[k] = rho
    np.cumprod(c, out=c)                                      # I_k / I_0
    c /= c[0] + 2.0 * math.fsum(c[1:])
    c = c[:np.flatnonzero(np.abs(c) > BESSEL_TAIL)[-1] + 1]
    c[1:] *= 2.0
    return c


def _miller_start(z: float) -> int:
    """k = L + sqrt(L^2 + 2 L z), L = -2 log BESSEL_TAIL, rounded up, plus one:
    past it the Debye exponent phi(k) = sqrt(k^2 + z^2) - z - k asinh t of
    e^{-z} I_k(z), t = k / z, is below -L.  For f(t) = phi / z + t^2 / (2 (1 + t)),
    f(0) = 0 and f' = -g with g(t) = asinh t - (1 - (1 + t)^-2) / 2; g(0) = 0 and
    g' = (1 + t^2)^-1/2 - (1 + t)^-3 >= 0.  So g >= 0, f <= 0 and
    phi(k) <= -k^2 / (2 (k + z)), which is -L at k = L + sqrt(L^2 + 2 L z)."""
    L = -2.0 * math.log(BESSEL_TAIL)
    return math.ceil(L + math.sqrt(L * L + 2.0 * L * z)) + 1


def wcl_scan(basis: FockBasis, kappa_list, p_list, eps: float, T=None) -> list[dict]:
    """Rows of the weak-coupling gap study E_kappa(p) - E_kappa(0).

    The gap target is p^2 / (2 m_eff_disc); E0_dev compares E_kappa(0)
    against kappa^2 times the Bogoliubov value (not the truncated ground
    energy, so the column isolates weak-coupling error from truncation
    error).  top_shell is the ground vector's weight on the top shell
    sum n = N_tot: the truncation indicator, small when N_tot is enough.
    A horizon T (eps = 1 only) adds semigroup_res, ``semigroup_wcl_residual``
    with the row's E_p as its ground energy: one more solve, P_g's, per scan.
    """
    kappa_list = checked("kappa_list", list_of(coupling), list(kappa_list))
    p_list = checked("p_list", list_of(finite), list(p_list))
    if T is not None:
        T, eps = checked("T", nonnegative, T), checked("eps", full_fiber, eps)
    e_disc = bogoliubov_energy(basis.modes)
    m_disc = basis.m_eff()
    top = basis.states.sum(axis=1) == basis.n_tot
    rows = []
    for kappa in kappa_list:
        e0, v0 = ground_state(fiber_hamiltonian(basis, kappa, 0.0, eps))
        for p in p_list:
            ep, vp = (e0, v0) if p == 0.0 else ground_state(
                fiber_hamiltonian(basis, kappa, p, eps))
            gap = ep - e0
            target = p * p / (2.0 * m_disc)
            rows.append({
                "kappa": kappa, "p": p, "epsilon": eps,
                "E_p": ep, "E_0": e0, "gap": gap, "target": target,
                "gap_dev": gap - target, "E0_dev": e0 - kappa**2 * e_disc,
                "semigroup_res": None if T is None else _semigroup_residual(
                    basis, kappa, p, T, e_disc, ep),
                "top_shell": _dot(vp[top], vp[top]),
            })
    return rows


def _semigroup_action(H: FiberHamiltonian, T: float, shift: float, lam0: float):
    """(exponent, series) with series(m, level) the map
    v -> exp(-m T (H - shift) - level) v, m = 1 or 2, matrix-free, and
    exponent = T (shift - low).

    The spectrum of H lies in [low, top]: top the row-sum bound, low = lam0 - delta
    with lam0 the lowest eigenvalue of H (``ground_state(H)[0]``) and
    delta = b / d^2 (b the half-width of the interval, d the degree of the T
    series), so the Ritz value's error and the rounding of the scaled H at its
    end stay inside.  With S = (c - H) / b, c the centre,

        exp(-m T (H - shift)) = exp(m T (shift - low)) sum_k (2 - delta_k0) ive_k(m beta) T_k(S),

    beta = T b, summed until ive_k(m beta) < BESSEL_TAIL (degree about
    8.5 sqrt(m beta) for large beta, so the cost grows as sqrt(T)).  Rounding
    costs about m beta eps_mach relative to the largest term.  Raises
    NumericalError when exp(T (shift - low)) overflows, or, before any
    coefficient is summed, when the series at 2 T half would start Miller's
    recurrence past SERIES_ORDER_GUARD.
    """
    top = max(H.row_sum_bound(), lam0)       # a rounding-level inversion at H = c 1
    half = 0.5 * (top - lam0)
    z = 2.0 * T * half                       # about the largest Bessel argument below
    order = _miller_start(z) if math.isfinite(z) else math.inf
    if order > SERIES_ORDER_GUARD:
        raise NumericalError(f"semigroup: at T = {T} the Bessel series would start at "
                             f"order {order:.3g}, past the {SERIES_ORDER_GUARD} guard")
    low = lam0 - half / len(_bessel_coefficients(T * half)) ** 2
    half = 0.5 * (top - low)
    exponent = T * (shift - low)
    if exponent > _LOG_MAX:
        raise NumericalError(
            f"semigroup: exp(T (kappa^2 E_disc - E_0)) = exp({exponent:.6g}) overflows")
    # a point interval (half = 0) has a degree-0 series, which never applies 2 S
    twice_S = replace(H, scale=-2.0 / half, shift=(top + low) / half) if half > 0.0 else None

    def series(m, level):
        coeffs = math.exp(m * exponent - level) * _bessel_coefficients(m * T * half)
        coeffs = coeffs[:np.flatnonzero(coeffs).max(initial=0) + 1]   # drop underflowed terms
        return lambda v: _chebyshev_sum(twice_S, coeffs, v)

    return exponent, series


def semigroup_wcl_residual(basis: FockBasis, kappa: float, p: float, T: float) -> float:
    """Operator norm of X = exp(-T(H_kappa(p) - kappa^2 E_disc))
    - P_g exp(-T (p - P_f)^2 / (2 m_eff_disc)).

    E_disc is the Bogoliubov value and P_g projects on the cached
    ``basis.ground_vector``.  With E the semigroup, g that vector and f = g
    exp(-T (p - P_f)^2 / (2 m_eff)), X = E - g f^T, and ||X||^2 is the largest eigenvalue of

        X X^T = E^2 - (E f) g^T - g (E f)^T + ||f||^2 g g^T,

    found by ``_lobpcg`` without a preconditioner.  E f is one Chebyshev-Bessel
    series, and each product applies E^2 = exp(-2T(H - c)) as one series
    (``_semigroup_action``: one ground-state solve of H = H_kappa(p, 1), which a
    ``wcl_scan`` row reuses, then operator products only, relative accuracy
    about T b eps_mach), so no dim x dim array is formed.  The norm is read as
    ||X^T u|| at the solver's vector u, one more series: it is stationary at the
    top singular vector, and unlike the eigenvalue of X X^T it does not square
    the rounding of E relative to ||X||.  When the larger term is outside
    exp(+-SMALL_NORM_LEVEL) (long T), the solver runs on exp(-level) X, the
    larger term scaled to 1, and the norm is scaled back, so a residual below
    the smallest double reads 0.
    """
    T = checked("T", nonnegative, T)
    lam0 = ground_state(fiber_hamiltonian(basis, kappa, p, eps=1.0))[0]
    return _semigroup_residual(basis, kappa, p, T, bogoliubov_energy(basis.modes), lam0)


def _semigroup_residual(basis, kappa, p, T, e_disc, lam0) -> float:
    """``semigroup_wcl_residual`` given E_disc and lam0, the ground energy of H_kappa(p, 1)."""
    exponent, series = _semigroup_action(fiber_hamiltonian(basis, kappa, p, eps=1.0), T,
                                         kappa**2 * e_disc, lam0)
    g = basis.ground_vector
    decay = -T * (p - basis.Pf) ** 2 / (2.0 * basis.m_eff())
    with np.errstate(divide="ignore"):
        level = max(exponent, float(np.max(np.log(np.abs(g)) + decay)))
    level = 0.0 if SMALL_NORM_LEVEL <= level <= -SMALL_NORM_LEVEL else level
    f = g * np.exp(decay - level)
    heat, square = series(1, level), series(2, 2.0 * level)
    Ef, ff = heat(f), _dot(f, f)

    def minus_XXt(v):
        gv = _dot(g, v)
        out = square(v)
        out -= gv * Ef
        out -= (_dot(Ef, v) - ff * gv) * g
        return -out

    u = _lobpcg(minus_XXt, _start_vector(basis.dim), None, EIGEN_RESIDUAL_TOL, 0.0,
                "semigroup operator norm")[0]
    return math.exp(level) * _norm(heat(u) - _dot(g, u) * f)      # ||X^T u||
