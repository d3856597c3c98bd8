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
rank-one Bogoliubov value (1/2) sum_i (sqrt(mu_i) - omega_i) with mu_i the
eigenvalues of diag(omega^2) + v v^T, v_j = sqrt(W_j).

Every ground state comes from ``ground_state``: seeded Lanczos with a residual
check, and dense ``eigh`` for matrices of at most DENSE_DIM_LIMIT states (ARPACK
cannot run at dim <= 2, and a small matrix gets its exact dense eigenvalue).  The
matrix functions never form a dim x dim array: the semigroup exp(-T(H - c)) and
the dressing exp(s G) act on vectors as Chebyshev series with Bessel
coefficients (the Chebyshev propagator of Tal-Ezer & Kosloff, J. Chem. Phys. 81,
1984) on the sparse operators, so no dimension has a dense-size cliff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, svds

from .errors import BasisSizeError, NumericalError

BASIS_SIZE_GUARD = 200_000
DENSE_DIM_LIMIT = 350      # ground states: dense eigh at or below, Lanczos above;
                           # the measured dense/Lanczos crossover at kappa = 1
LANCZOS_RESIDUAL_TOL = 1e-9
DIAMAGNETIC_ALLOWANCE = 1e-6    # truncation plus eigensolver slack of E_kappa(0) <= E_kappa(p)
BESSEL_TAIL = 1e-17        # Chebyshev-Bessel series end where the coefficients fall below
_LOG_MAX = math.log(np.finfo(float).max)
#: below exp(SMALL_NORM_LEVEL) svds's X^T X nears underflow, so the norm is
#: taken on a rescaled X
SMALL_NORM_LEVEL = -300.0


@dataclass(frozen=True)
class Mode:
    omega: float
    weight: float
    momentum: float = 0.0

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"mode frequency must be positive, got {self.omega}")
        if not (self.weight >= 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"mode weight must be nonnegative, got {self.weight}")
        if not math.isfinite(self.momentum):
            raise ValueError(f"mode momentum must be finite, got {self.momentum}")

    @property
    def coupling(self) -> float:
        return math.sqrt(self.weight / self.omega)


def as_modes(modes) -> tuple[Mode, ...]:
    out = []
    for m in modes:
        if isinstance(m, Mode):
            out.append(m)
        else:
            out.append(Mode(*m))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis {n : sum n_j <= N_tot} with a total order.

    States are ordered by total occupation, then by n_0 descending, then n_1
    descending, and so on.  In terms of the tail sums s_j = n_j + ... + n_{M-1}
    that is the lexicographic order of (s_0, ..., s_{M-1}), and the position of
    n is its combinatorial-number-system rank sum_j C(s_j + M - 1 - j, M - j).
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
        (each row must lie in the basis; ``position`` checks one)."""
        tails = np.cumsum(occupations[..., ::-1], axis=-1)[..., ::-1]
        return self._rank_terms[np.arange(len(self.modes)), tails].sum(axis=-1)

    def position(self, occupation) -> int:
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (len(self.modes),) or occ.min() < 0 or occ.sum() > self.n_tot:
            raise KeyError(tuple(occupation))
        return int(self.rank(occ))

    def annihilator(self, j: int) -> sp.csr_matrix:
        """a_j in the truncated basis: a_j |n> = sqrt(n_j) |n - e_j>."""
        cols = np.flatnonzero(self.states[:, j])
        lowered = self.states[cols]
        data = np.sqrt(lowered[:, j].astype(float))
        lowered[:, j] -= 1
        return sp.csr_matrix((data, (self.rank(lowered), cols)), shape=(self.dim, self.dim))


def _tail_sums(M: int, n_tot: int) -> np.ndarray:
    """Every n_tot >= s_0 >= s_1 >= ... >= s_{M-1} >= 0, in lexicographic order.

    Built one coordinate at a time: each row of level j - 1 gets the children
    s_j = 0 .. s_{j-1}.  Each level stores only its values and parent rows,
    and the columns are read back along the parent chain, so the work is
    O(M dim) for any number of modes.
    """
    values, parents = [np.arange(n_tot + 1)], []
    for _ in range(1, M):
        counts = values[-1] + 1
        parents.append(np.repeat(np.arange(counts.size), counts))
        values.append(np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts))
    tails = np.empty((values[-1].size, M), dtype=np.int64)
    row = np.arange(values[-1].size)
    for j in range(M - 1, -1, -1):
        tails[:, j] = values[j][row]
        row = parents[j - 1][row] if j else row
    return tails


def build_basis(modes, n_tot: int) -> FockBasis:
    """Enumerate multi-indices with total occupation <= n_tot.

    The dimension is C(M + n_tot, M); a hard guard rejects requests past
    200000 states before any enumeration happens.
    """
    modes = as_modes(modes)
    M = len(modes)
    if M < 1:
        raise ValueError("need at least one mode")
    if n_tot < 1:
        raise ValueError(f"need n_tot >= 1, got {n_tot}")
    dim = math.comb(M + n_tot, M)
    if dim > BASIS_SIZE_GUARD:
        raise BasisSizeError(
            f"basis would hold {dim} states, over the {BASIS_SIZE_GUARD} guard")
    states = _tail_sums(M, n_tot)
    states[:, :-1] -= states[:, 1:]          # n_j = s_j - s_{j+1}
    return FockBasis(modes=modes, n_tot=n_tot, states=states)


@dataclass(frozen=True, eq=False)
class FiberOperators:
    """Matrices of H_f, P_f and A on a FockBasis; the dressing generator and
    the ground vector are built on first read (neither by the scan)."""

    basis: FockBasis
    Hf: sp.csr_matrix = field(repr=False)
    Pf: sp.csr_matrix = field(repr=False)
    A: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def m_eff(self) -> float:
        return 1.0 + math.fsum(m.weight / m.omega**2 for m in self.basis.modes)

    @cached_property
    def shift_generator(self) -> sp.csr_matrix:
        """-i p Pi~ = (p / sqrt(2)) sum_j (g_j/omega_j) (a_j^T - a_j): real antisymmetric."""
        G = sp.csr_matrix((self.dim, self.dim))
        for j, mode in enumerate(self.basis.modes):
            a = self.basis.annihilator(j)
            G = G + mode.coupling / (mode.omega * math.sqrt(2.0)) * (a.T - a)
        return G.tocsr()

    @cached_property
    def ground_vector(self) -> np.ndarray:
        """Ground eigenvector of (1/2) A^2 + H_f (kappa-independent)."""
        return ground_state(fiber_hamiltonian(self, 1.0, 0.0, 0.0))[1]


def build_operators(basis: FockBasis) -> FiberOperators:
    occ = basis.states.astype(float)
    omegas = np.array([m.omega for m in basis.modes])
    qs = np.array([m.momentum for m in basis.modes])
    Hf = sp.diags(occ @ omegas).tocsr()
    Pf = sp.diags(occ @ qs).tocsr()
    A = sp.csr_matrix((basis.dim, basis.dim))
    for j, mode in enumerate(basis.modes):
        a = basis.annihilator(j)
        A = A + mode.coupling / math.sqrt(2.0) * (a + a.T)
    return FiberOperators(basis=basis, Hf=Hf, Pf=Pf, A=A.tocsr())


def fiber_hamiltonian(ops: FiberOperators, kappa: float, p: float,
                      eps: float) -> sp.csr_matrix:
    """H_kappa(p, eps) = (1/2)(p - eps P_f - kappa A)^2 + kappa^2 H_f."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {eps}")
    for name, value in (("kappa", kappa), ("p", p)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dim = ops.dim
    B = (p * sp.identity(dim) - eps * ops.Pf - kappa * ops.A).tocsr()
    H = 0.5 * (B @ B) + kappa**2 * ops.Hf
    return H.tocsr()


def _start_vector(dim: int) -> np.ndarray:
    """Fixed Krylov start vector, so ARPACK results repeat byte for byte."""
    return np.random.default_rng(0).standard_normal(dim)


def ground_state(matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (lam, vec): dense ``eigh`` for dim <= DENSE_DIM_LIMIT,
    else Lanczos from a fixed start vector with a relative residual check at
    LANCZOS_RESIDUAL_TOL."""
    dim = matrix.shape[0]
    if dim <= DENSE_DIM_LIMIT:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
        vals, vecs = eigh(dense, subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    A = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(matrix)
    try:
        vals, vecs = eigsh(A, k=1, which="SA", maxiter=20000, v0=_start_vector(dim))
    except Exception as exc:
        raise NumericalError(f"Lanczos eigensolver failed: {exc}") from exc
    lam = float(vals[0])
    v = vecs[:, 0]
    residual = float(np.linalg.norm(A @ v - lam * v))
    if residual > LANCZOS_RESIDUAL_TOL * max(1.0, abs(lam)):
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds {LANCZOS_RESIDUAL_TOL:.0e}")
    return lam, v


def bogoliubov_energy(modes) -> float:
    """Exact ground energy of (1/2) A^2 + H_f for the discrete measure:

        (1/2) sum_i (sqrt(mu_i) - omega_i) = (1/2) sum_i delta_i / (sqrt(mu_i) + omega_i),

    mu_i = omega_i^2 + delta_i the eigenvalues of diag(omega_j^2) + v v^T,
    v_j = sqrt(W_j).  With equal frequencies merged and W = 0 atoms dropped,
    delta_i is the root in (0, omega_{i+1}^2 - omega_i^2) (in (0, sum W] for the
    largest omega) of 1 + sum_j W_j / ((omega_j - omega_i)(omega_j + omega_i) - delta),
    found by bisection; nothing cancels, so stiff atoms keep full relative
    accuracy.  The continuum-side counterpart is the energy-module
    ground_energy at the same PointMasses measure.
    """
    merged = {}
    for m in as_modes(modes):
        if m.weight > 0.0:
            merged[m.omega] = merged.get(m.omega, 0.0) + m.weight
    if not merged:
        return 0.0
    omega = np.array(sorted(merged))
    W = np.array([merged[w] for w in omega])
    gaps = (omega[None, :] - omega[:, None]) * (omega[None, :] + omega[:, None])
    total = 0.0
    for i, hi in enumerate(np.append(np.diag(gaps, 1), W.sum())):
        lo = 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if 1.0 + np.sum(W / (gaps[i] - mid)) > 0.0 else (mid, hi)
        total += hi / (math.sqrt(omega[i] ** 2 + hi) + omega[i])
    return 0.5 * total


def _chebyshev_sum(twice_S, coeffs, v, combine) -> np.ndarray:
    """sum_k coeffs[k] y_k with y_0 = v, y_1 = S v, y_{k+1} = combine(2 S y_k, y_{k-1}).

    ``twice_S`` is the sparse 2 S; ``v`` a vector or a block of columns.
    combine = np.subtract gives the Chebyshev terms y_k = T_k(S) v; np.add, for
    an antisymmetric S, the real Jacobi-Anger terms y_k = i^k T_k(-i S) v.
    """
    out = coeffs[0] * v
    if len(coeffs) > 1:
        prev, cur = v, 0.5 * (twice_S @ v)
        out += coeffs[1] * cur
        for c in coeffs[2:]:
            nxt = twice_S @ cur
            combine(nxt, prev, out=nxt)
            prev, cur = cur, nxt
            out += c * cur
    return out


def _bessel_coefficients(bessel, z: float) -> np.ndarray:
    """(2 - delta_k0) bessel(k, z) for k = 0 .. d - 1, where past order d - 1
    every |bessel(k, z)| stays below BESSEL_TAIL.

    Two consecutive orders below the tail mark its start: ive_k(z) falls
    monotonically in k, and two small consecutive J_k(z) cannot occur for
    k < z, where the recurrence would carry them down to J_0 and J_1.
    """
    n = 16
    while True:
        c = bessel(np.arange(n), z)
        d = np.flatnonzero(np.abs(c) > BESSEL_TAIL)[-1] + 1
        if d <= n - 2:
            break
        n *= 2
    c = c[:d]
    c[1:] *= 2.0
    return c


def _row_sum_bound(matrix) -> float:
    """max_i sum_j |m_ij|: bounds |lambda| for every eigenvalue (Gershgorin)."""
    return float(abs(matrix).sum(axis=1).max())


def _dressing_action(G, s: float, V: np.ndarray) -> np.ndarray:
    """exp(s G) V for a real antisymmetric sparse G, by the Jacobi-Anger series

        exp(s G) = sum_k (2 - delta_k0) J_k(z) i^k T_k(-i s G / z),  z = |s| ||G||_inf,

    whose terms obey the real recurrence y_{k+1} = 2 (s G / z) y_k + y_{k-1}."""
    from scipy.special import jv

    z = abs(s) * _row_sum_bound(G)
    twice_S = (2.0 * s / z) * G if z > 0.0 else G
    return _chebyshev_sum(twice_S, _bessel_coefficients(jv, z), V, np.add)


def conjugation_residual(ops: FiberOperators, kappa: float, p: float) -> float:
    """Operator-norm defect of the dressing identity on low occupations.

    U_p = exp(p G / (kappa m_eff)) with G the stored antisymmetric generator;
    exactly (untruncated) U_p^{-1} H_dip,kappa U_p = p^2/(2 m_eff)
    + kappa^2 ((1/2) A^2 + H_f).  The residual is measured on states with
    total occupation <= N_tot / 2 and shrinks as the truncation grows.  U_p
    acts on those columns only, matrix-free (``_dressing_action``).
    """
    if kappa <= 0:
        raise ValueError("the dressing needs kappa > 0")
    m_star = ops.m_eff()
    dim = ops.dim
    low = np.flatnonzero(ops.basis.states.sum(axis=1) <= ops.basis.n_tot // 2)
    columns = np.zeros((dim, low.size))          # the identity's low columns
    columns[low, np.arange(low.size)] = 1.0
    U = _dressing_action(ops.shift_generator, p / (kappa * m_star), columns)
    H_dip = fiber_hamiltonian(ops, kappa, p, eps=0.0)
    target = ((p * p / (2.0 * m_star)) * sp.identity(dim)
              + kappa**2 * fiber_hamiltonian(ops, 1.0, 0.0, 0.0))
    R = U.T @ (H_dip @ U) - (target @ columns)[low]
    return float(np.linalg.norm(R, 2))


def wcl_scan(ops: FiberOperators, kappa_list, p_list, eps: float) -> list[dict]:
    """Rows of the weak-coupling gap study E_kappa(p) - E_kappa(0).

    The gap target is p^2 / (2 m_eff_disc); E0_dev compares E_kappa(0)
    against kappa^2 times the Bogoliubov value (not the truncated ground
    energy, so the column isolates weak-coupling error from truncation
    error).  top_shell is the ground vector's weight on the top shell
    sum n = N_tot: the truncation indicator, small when N_tot is enough.
    """
    kappa_list = list(kappa_list)
    p_list = list(p_list)
    if not kappa_list or not p_list:
        raise ValueError("kappa_list and p_list must be nonempty")
    reference_energy = bogoliubov_energy(ops.basis.modes)
    m_disc = ops.m_eff()
    top = ops.basis.states.sum(axis=1) == ops.basis.n_tot
    rows = []
    for kappa in kappa_list:
        e0, v0 = ground_state(fiber_hamiltonian(ops, kappa, 0.0, eps))
        for p in p_list:
            ep, vp = (e0, v0) if p == 0.0 else ground_state(
                fiber_hamiltonian(ops, kappa, p, eps))
            gap = ep - e0
            target = p * p / (2.0 * m_disc)
            rows.append({
                "kappa": kappa, "p": p, "epsilon": eps,
                "E_p": ep, "E_0": e0, "gap": gap, "target": target,
                "gap_dev": gap - target,
                "E0_dev": e0 - kappa**2 * reference_energy,
                "top_shell": float(vp[top] @ vp[top]),
            })
    return rows


def diamagnetic_check(ops: FiberOperators, kappa: float, p_list,
                      eps: float = 1.0) -> list[dict]:
    """Monitor E_kappa(0) <= E_kappa(p) up to DIAMAGNETIC_ALLOWANCE, on the
    ``wcl_scan`` rows for this one kappa.

    Violations are reported (flagged, never raised) and attributed to the
    truncation plus eigensolver residual.
    """
    rows = [{key: row[key] for key in ("kappa", "p", "epsilon", "E_0", "E_p")}
            for row in wcl_scan(ops, [kappa], p_list, eps)]
    for row in rows:
        row["excess"] = row["E_0"] - row["E_p"]
        row["ok"] = row["excess"] <= DIAMAGNETIC_ALLOWANCE
    return rows


def _semigroup_action(H, T: float, shift: float):
    """(exponent, action) with action(level) the map v -> exp(-T (H - shift) - level) v
    for a sparse symmetric H, matrix-free, and exponent = T (shift - low).

    The spectrum of H lies in [low, top]: top the row-sum bound, low = lam0 - delta
    with lam0 = ``ground_state(H)`` and delta = b / d^2 (b the half-width of the
    interval, d the series degree), so the Ritz value's error and the rounding
    of the scaled H at its end stay inside.  With S = (c - H) / b, c the centre,

        exp(-T (H - shift)) = exp(T (shift - low)) sum_k (2 - delta_k0) ive_k(beta) T_k(S),

    beta = T b, summed until ive_k(beta) < BESSEL_TAIL (degree about
    8.5 sqrt(beta) for large beta, so the cost grows as sqrt(T)).  Rounding
    costs about beta * eps_mach relative to the largest term.  Raises
    NumericalError when exp(T (shift - low)) overflows.
    """
    from scipy.special import ive     # here, so scan-only runs never import it

    lam0 = ground_state(H)[0]
    top = _row_sum_bound(H)
    half = 0.5 * (top - lam0)
    low = lam0 - half / len(_bessel_coefficients(ive, T * half)) ** 2
    half = 0.5 * (top - low)
    exponent = T * (shift - low)
    if exponent > _LOG_MAX:
        raise NumericalError(
            f"semigroup: exp(T (kappa^2 E_disc - E_0)) = exp({exponent:.6g}) overflows")
    bessel = _bessel_coefficients(ive, T * half)
    centred = 0.5 * (top + low) * sp.identity(H.shape[0], format="csr") - H
    twice_S = (2.0 / half) * centred if half > 0.0 else centred

    def action(level):
        coeffs = math.exp(exponent - level) * bessel
        coeffs = coeffs[:np.flatnonzero(coeffs).max(initial=0) + 1]   # drop underflowed terms
        return lambda v: _chebyshev_sum(twice_S, coeffs, v, np.subtract)

    return exponent, action


def semigroup_wcl_residual(ops: FiberOperators, kappa: float, p: float,
                           T: float) -> float:
    """Operator norm of exp(-T(H_kappa(p) - kappa^2 E_disc))
    - P_g exp(-T (p - P_f)^2 / (2 m_eff_disc)).

    E_disc is the Bogoliubov value and P_g projects on the cached
    ``ops.ground_vector``.  The exponential acts on vectors as a
    Chebyshev-Bessel series (``_semigroup_action``: one ground-state solve of
    H, then sparse products only, relative accuracy about T b eps_mach), and
    ``svds`` takes the norm, so no dim x dim array is formed.  When both terms
    are below exp(SMALL_NORM_LEVEL) (long T), svds runs on exp(-level) X, the
    larger term scaled to 1, and the norm is scaled back, so a residual below
    the smallest double reads 0.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"the semigroup needs a finite T >= 0, got {T}")
    dim = ops.dim
    exponent, action = _semigroup_action(fiber_hamiltonian(ops, kappa, p, eps=1.0), T,
                                         kappa**2 * bogoliubov_energy(ops.basis.modes))
    g = ops.ground_vector
    decay = -T * (p - ops.Pf.diagonal()) ** 2 / (2.0 * ops.m_eff())
    with np.errstate(divide="ignore"):
        level = max(exponent, float(np.max(np.log(np.abs(g)) + decay)))
    level = level if level < SMALL_NORM_LEVEL else 0.0
    heat = action(level)
    f = g * np.exp(decay - level)

    def apply(v, left, right):
        v = np.ravel(v)
        return heat(v) - left * (right @ v)

    # exp(-T(H - c)) is symmetric, so X^T = exp(-T(H - c)) - f g^T
    X = LinearOperator((dim, dim), dtype=float, matvec=lambda v: apply(v, g, f),
                       rmatvec=lambda v: apply(v, f, g))
    try:
        top = svds(X, k=1, return_singular_vectors=False, v0=_start_vector(dim))
    except ArpackError as exc:
        raise NumericalError(f"semigroup operator norm (svds) failed: {exc}") from exc
    return math.exp(level) * float(top[0])
