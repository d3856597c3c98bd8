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
cannot run at dim <= 2, and a small matrix gets its exact dense eigenvalue).  Only
the matrix functions (semigroup, dressing) stay dense, up to DENSE_EXPM_LIMIT states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import ArpackError, aslinearoperator, eigsh, svds

from .errors import BasisSizeError, NumericalError

BASIS_SIZE_GUARD = 200_000
DENSE_DIM_LIMIT = 350      # ground states: dense eigh at or below, Lanczos above;
                           # the measured dense/Lanczos crossover at kappa = 1
DENSE_EXPM_LIMIT = 2000    # dense matrix functions: semigroup and dressing
LANCZOS_RESIDUAL_TOL = 1e-9


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
    """Occupation-number basis {n : sum n_j <= N_tot} with a total order."""

    modes: tuple[Mode, ...]
    n_tot: int
    states: np.ndarray = field(repr=False)      # (dim, M) int array
    index: dict = field(repr=False)             # tuple(n) -> position

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def position(self, occupation) -> int:
        return self.index[tuple(int(v) for v in occupation)]

    def annihilator(self, j: int) -> sp.csr_matrix:
        """a_j in the truncated basis: a_j |n> = sqrt(n_j) |n - e_j>."""
        rows, cols, data = [], [], []
        for pos, state in enumerate(self.states):
            nj = state[j]
            if nj == 0:
                continue
            lowered = state.copy()
            lowered[j] -= 1
            rows.append(self.index[tuple(lowered)])
            cols.append(pos)
            data.append(math.sqrt(nj))
        return sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))


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
    states = np.zeros((dim, M), dtype=np.int64)
    pos = 0
    # multisets of size k over M modes <-> occupations with sum k
    for k in range(n_tot + 1):
        for combo in combinations_with_replacement(range(M), k):
            for j in combo:
                states[pos, j] += 1
            pos += 1
    assert pos == dim
    index = {tuple(int(v) for v in s): i for i, s in enumerate(states)}
    return FockBasis(modes=modes, n_tot=n_tot, states=states, index=index)


@dataclass(frozen=True, eq=False)
class FiberOperators:
    """Matrices of H_f, P_f and A on a FockBasis, plus the dressing generator."""

    basis: FockBasis
    Hf: sp.csr_matrix = field(repr=False)
    Pf: sp.csr_matrix = field(repr=False)
    A: sp.csr_matrix = field(repr=False)
    shift_generator: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def delta_m(self) -> float:
        return math.fsum(m.weight / m.omega**2 for m in self.basis.modes)

    def m_eff(self) -> float:
        return 1.0 + self.delta_m()

    def half_A2_plus_Hf(self) -> sp.csr_matrix:
        return (0.5 * (self.A @ self.A) + self.Hf).tocsr()

    @cached_property
    def ground_vector(self) -> np.ndarray:
        """Ground eigenvector of (1/2) A^2 + H_f (kappa-independent)."""
        return ground_state(self.half_A2_plus_Hf())[1]


def build_operators(basis: FockBasis) -> FiberOperators:
    occ = basis.states.astype(float)
    omegas = np.array([m.omega for m in basis.modes])
    qs = np.array([m.momentum for m in basis.modes])
    Hf = sp.diags(occ @ omegas).tocsr()
    Pf = sp.diags(occ @ qs).tocsr()
    dim = basis.dim
    A = sp.csr_matrix((dim, dim))
    G = sp.csr_matrix((dim, dim))
    for j, mode in enumerate(basis.modes):
        a = basis.annihilator(j)
        g = mode.coupling
        A = A + g / math.sqrt(2.0) * (a + a.T)
        # -i p Pi~ = (p / sqrt(2)) sum_j (g_j/omega_j) (a_j^T - a_j): real antisymmetric
        G = G + g / (mode.omega * math.sqrt(2.0)) * (a.T - a)
    return FiberOperators(basis=basis, Hf=Hf, Pf=Pf, A=A.tocsr(),
                          shift_generator=G.tocsr())


def fiber_hamiltonian(ops: FiberOperators, kappa: float, p: float,
                      eps: float) -> sp.csr_matrix:
    """H_kappa(p, eps) = (1/2)(p - eps P_f - kappa A)^2 + kappa^2 H_f."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {eps}")
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


def ground_energy(matrix) -> float:
    """Smallest eigenvalue: ``ground_state(matrix)[0]``."""
    return ground_state(matrix)[0]


def bogoliubov_energy(modes) -> float:
    """Exact ground energy of (1/2) A^2 + H_f for the discrete measure:

        (1/2) sum_i (sqrt(mu_i) - omega_i),

    mu_i the eigenvalues of diag(omega_j^2) + v v^T with v_j = sqrt(W_j).
    Independent of any truncation; the continuum-side counterpart is the
    energy-module ground_energy at the same PointMasses measure.
    """
    modes = as_modes(modes)
    if not modes:
        return 0.0
    omegas = np.array([m.omega for m in modes])
    v = np.sqrt(np.array([m.weight for m in modes]))
    mu = np.linalg.eigvalsh(np.diag(omegas**2) + np.outer(v, v))
    mu = np.clip(mu, 0.0, None)
    return 0.5 * float(np.sum(np.sqrt(mu) - omegas))


def conjugation_residual(ops: FiberOperators, kappa: float, p: float) -> float:
    """Operator-norm defect of the dressing identity on low occupations.

    U_p = exp(p G / (kappa m_eff)) with G the stored antisymmetric generator;
    exactly (untruncated) U_p^{-1} H_dip,kappa U_p = p^2/(2 m_eff)
    + kappa^2 ((1/2) A^2 + H_f).  The residual is measured on states with
    total occupation <= N_tot / 2 and shrinks as the truncation grows.
    """
    if kappa <= 0:
        raise ValueError("the dressing needs kappa > 0")
    m_star = ops.m_eff()
    dim = ops.dim
    if dim > DENSE_EXPM_LIMIT:
        raise NumericalError(f"dense dressing needs dim <= {DENSE_EXPM_LIMIT}, got {dim}")
    U = expm((p / (kappa * m_star)) * ops.shift_generator.toarray())
    H_dip = fiber_hamiltonian(ops, kappa, p, eps=0.0).toarray()
    target = (p * p / (2.0 * m_star)) * np.eye(dim) \
        + kappa**2 * ops.half_A2_plus_Hf().toarray()
    R = U.T @ H_dip @ U - target
    low = ops.basis.states.sum(axis=1) <= ops.basis.n_tot // 2
    sub = R[np.ix_(low, low)]
    return float(np.linalg.norm(sub, 2))


def wcl_scan(ops: FiberOperators, kappa_list, p_list, eps: float,
             reference_energy: float | None = None) -> list[dict]:
    """Rows of the weak-coupling gap study E_kappa(p) - E_kappa(0).

    The gap target is p^2 / (2 m_eff_disc); E0_dev compares E_kappa(0)
    against kappa^2 times the Bogoliubov value (not the truncated ground
    energy, so the column isolates weak-coupling error from truncation
    error).
    """
    kappa_list = list(kappa_list)
    p_list = list(p_list)
    if not kappa_list or not p_list:
        raise ValueError("kappa_list and p_list must be nonempty")
    if reference_energy is None:
        reference_energy = bogoliubov_energy(ops.basis.modes)
    m_disc = ops.m_eff()
    rows = []
    for kappa in kappa_list:
        e0 = ground_energy(fiber_hamiltonian(ops, kappa, 0.0, eps))
        for p in p_list:
            ep = e0 if p == 0.0 else ground_energy(fiber_hamiltonian(ops, kappa, p, eps))
            gap = ep - e0
            target = p * p / (2.0 * m_disc)
            rows.append({
                "kappa": kappa, "p": p, "epsilon": eps,
                "E_p": ep, "E_0": e0, "gap": gap, "target": target,
                "gap_dev": gap - target,
                "E0_dev": e0 - kappa**2 * reference_energy,
            })
    return rows


def diamagnetic_check(ops: FiberOperators, kappa: float, p_list,
                      eps: float = 1.0, allowance: float = 1e-6) -> list[dict]:
    """Monitor E_kappa(0) <= E_kappa(p) up to the truncation allowance, on
    the ``wcl_scan`` rows for this one kappa.

    Violations are reported (flagged, never raised) and attributed to the
    truncation plus eigensolver residual.
    """
    rows = [{key: row[key] for key in ("kappa", "p", "epsilon", "E_0", "E_p")}
            for row in wcl_scan(ops, [kappa], p_list, eps)]
    for row in rows:
        row["excess"] = row["E_0"] - row["E_p"]
        row["ok"] = row["excess"] <= allowance
    return rows


def semigroup_wcl_residual(ops: FiberOperators, kappa: float, p: float,
                           T: float) -> float:
    """Operator norm of exp(-T(H_kappa(p) - kappa^2 E_disc))
    - P_g exp(-T (p - P_f)^2 / (2 m_eff_disc)).

    E_disc is the Bogoliubov value and P_g projects on the cached
    ``ops.ground_vector``.  One dense ``eigh`` of H gives the exponential,
    so dim <= DENSE_EXPM_LIMIT; ``svds`` takes the norm matrix-free.
    """
    dim = ops.dim
    if dim > DENSE_EXPM_LIMIT:
        raise NumericalError(
            f"dense exponentials need dim <= {DENSE_EXPM_LIMIT}, got {dim}")
    e_disc = bogoliubov_energy(ops.basis.modes)
    lam, Q = eigh(fiber_hamiltonian(ops, kappa, p, eps=1.0).toarray(), driver="evd")
    decay = np.exp(np.clip(-T * (lam - kappa**2 * e_disc), -745.0, 50.0))
    g = ops.ground_vector
    free = np.exp(np.clip(-T * (p - ops.Pf.diagonal()) ** 2 / (2.0 * ops.m_eff()),
                          -745.0, 50.0))
    L = aslinearoperator
    X = L(Q) @ L(sp.diags(decay)) @ L(Q.T) - L(g[:, None]) @ L((g * free)[None, :])
    try:
        top = svds(X, k=1, return_singular_vectors=False, v0=_start_vector(dim))
    except ArpackError as exc:
        raise NumericalError(f"semigroup operator norm (svds) failed: {exc}") from exc
    return float(top[0])
