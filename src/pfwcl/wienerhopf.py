"""State-space evaluation of the truncated Wiener-Hopf operator C_T.

C_T has kernel rho(t - s), rho(tau) = sum_k w_k/(2 r_k) exp(-kappa^2 r_k |tau|)
over the measure's radial rule.  In x = kappa^2 t, 1 + kappa^2 C_T is 1 + K_S
on [0, S], S = kappa^2 T, with kernel rho_1(x) = sum_j g_j^2 exp(-lam_j |x|):
the covariance of y = g.z for the stationary state dz = -diag(lam) z dx + dw,
Cov z = I.  So one realization (lam, g) per measure serves every kappa and T.
A point-mass rule, equal frequencies merged, is its own realization; a continuum
rule (A = -diag(r), b = sqrt(w/(2r))) is cut by balanced truncation (Moore 1981)
to the states whose Hankel singular value exceeds TRUNCATION_TOL of the largest.
Its K-node stage (a pivoted Cholesky of the gramian, classical Gram-Schmidt
twice on the factor, the projections of A and b) runs in numpy's own loops, and
one svd of the small r0 x r0 Gram-Schmidt factor gives the singular values:
LAPACK and BLAS see only matrices of the state count, which keeps the K x r0
svd's memory out of the process and the output bytes independent of the BLAS
thread count.

The symbol 1 + rho_hat_1 = prod (t^2 + mu^2) / prod (t^2 + lam^2) is rational,
mu^2, Q the normal modes of diag(lam^2) + v v^T, v = sqrt(2 lam) g (normalmodes),
and with Dt = Q^T diag(lam) Q its determinant formulas (Boettcher-Silbermann,
Analysis of Toeplitz Operators, ch. 10) give at every S

    log det(1 + K_S) = S sum(mu - lam) + 2 sum log1p(expm1(-mu S)/2)
        + log det(1 + D1^1/2 Dt^-1 D1^1/2) + log det(1 + D2^1/2 Dt D2^1/2),

D1 = diag(mu tanh(mu S/2)), D2 = diag(tanh(mu S/2)/mu), each log det a sum of
log1p over eigenvalues.  As S -> inf this is S times the Ahiezer-Kac rate
sum(mu - lam) plus B = sum_ij log1p(d_i d_j / ((lam_i + lam_j)(mu_i + mu_j))),
d_i = mu_i - lam_i >= 0 (the two interlace).  u_T solves a two-point
boundary-value problem in the states, with modes anchored where they decay,
so int u_T is closed form and no exponential exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# bench/tracing.py counts factorisations through the names cho_factor and eigvalsh
from numpy.linalg import cholesky as cho_factor
from numpy.linalg import eigh, eigvalsh, solve, svd

from .errors import NumericalError
from .formfactor import RadialMeasure, _effective_component_count, moment_report
from .normalmodes import merged, secular_roots, secular_vectors
from .quadrature import gauss_panels

TRUNCATION_TOL = 1e-15
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateSpace:
    """rho_1(x) = sum_j g_j^2 exp(-lam_j |x|) and its S-independent data; ``tail``
    bounds the discarded Hankel singular values (with a rounding allowance),
    ``mass`` bounds t^2 rho_hat_1(t) of rule and realization."""

    lam: np.ndarray
    g: np.ndarray
    tail: float = 0.0
    mass: float = 0.0

    @cached_property
    def _roots(self):       # (mu, mu - lam, lam_j^2 - mu_i^2) of diag(lam^2) + v v^T
        return secular_roots(self.lam, 2.0 * self.lam * self.g ** 2)

    @cached_property
    def modes(self):
        """(mu, Dt = Q^T diag(lam) Q, Dt^-1, Q^T (sqrt(lam) g), e = Q^T (g / sqrt(lam)),
        u_inf) from the normal modes mu^2, Q of diag(lam^2) + v v^T."""
        lam, e = self.lam, self.g / np.sqrt(self.lam)
        Q = secular_vectors(lam, np.sqrt(2.0 * lam) * self.g, self._roots[2])
        return (self._roots[0], (Q.T * lam) @ Q, (Q.T / lam) @ Q,
                Q.T @ (np.sqrt(lam) * self.g), Q.T @ e, 1.0 / (1.0 + 2.0 * float(e @ e)))

    @cached_property
    def asymptote(self):
        """(rate, B) with log det(1 + K_S) = rate S + B + o(1): the Ahiezer-Kac
        rate sum(mu - lam) and the constant term B, both from d = mu - lam."""
        (mu, d, _), lam = self._roots, self.lam
        return float(d.sum()), float(np.sum(np.log1p(
            np.outer(d, d) / ((lam[:, None] + lam) * (mu[:, None] + mu)))))

    def disc_err(self, kappa: float) -> float:
        """Bound on |log det error| / T from the truncation (0 for point masses).

        log det is 1-Lipschitz in trace norm on PSD operators, and a truncated
        convolution has trace norm <= S (1/2 pi) int |Delta rho_hat_1|.  With
        |Delta rho_hat_1| <= 4 tail (balanced truncation) and <= mass / t^2,
        int |Delta rho_hat_1| <= 8 sqrt(tail mass), so |Delta log det| / T <=
        (4 kappa^2 / pi) sqrt(tail mass).  The rule's own error is not included.
        """
        return 4.0 * kappa * kappa / math.pi * math.sqrt(self.tail * self.mass)


def _log1p_det(N: np.ndarray) -> float:
    """log det(1 + N) for symmetric PSD N, accurate also when N is tiny."""
    return float(np.sum(np.log1p(eigvalsh(N))))


def _balanced_truncation(r: np.ndarray, w: np.ndarray) -> StateSpace:
    """Reduce A = -diag(r), b = sqrt(w/(2r)) by a pivoted Cholesky of its gramian.

    The Schur complement of b_i b_j/(r_i + r_j) after pivot k is again Cauchy,
    with b_i (r_i - r_k)/(r_i + r_k): O(K) per column, no K x K matrix.  With
    its r0 columns stacked as the rows of Q, the factor is Q^T R after classical
    Gram-Schmidt applied twice (Giraud, Langou and Rozloznik 2005), so one svd
    of the r0 x r0 R gives its singular values and kept directions V, and A
    and b project to V^T Q diag(r) Q^T V and V^T Q b.  Every contraction over
    the K nodes is an ``einsum`` in numpy's own loops: no LAPACK or BLAS call
    sees a K-length axis, which saves the memory of a K x r0 svd and keeps the
    bytes independent of the BLAS thread count.
    """
    b = np.sqrt(w / (2.0 * r))
    gen, cols = b.copy(), []
    diag = gen * gen / (2.0 * r)
    top = float(diag.max())
    while diag.max() > TRUNCATION_TOL * top:
        k = int(np.argmax(diag))
        cols.append(gen * (math.sqrt(2.0 * r[k]) * np.sign(gen[k])) / (r + r[k]))
        gen = gen * (r - r[k]) / (r + r[k])
        diag = gen * gen / (2.0 * r)
    Q = np.array(cols)
    del cols
    R = np.zeros((len(Q), len(Q)))
    for j, q in enumerate(Q):                   # q is row j of Q, updated in place
        for _ in range(2):
            h = np.einsum("ik,k->i", Q[:j], q)
            q -= np.einsum("i,ik->k", h, Q[:j])
            R[:j, j] += h
        R[j, j] = math.sqrt(float(np.einsum("k,k->", q, q)))
        if not R[j, j] > 0.0:
            raise NumericalError(f"balanced truncation: Gram-Schmidt column {j} of "
                                 f"{len(Q)} vanishes (norm {R[j, j]})")
        q /= R[j, j]
    Ur, sv, _ = svd(R)
    keep = sv * sv > TRUNCATION_TOL * sv[0] ** 2
    V = Ur[:, keep]
    QrQ = np.empty((len(Q), len(Q)))            # Q diag(r) Q^T, exactly symmetric:
    for i, q in enumerate(Q):                   # row i from column i on, mirrored
        QrQ[i, i:] = QrQ[i:, i] = np.einsum("k,jk->j", q * r, Q[i:])
    lam, Z = eigh(V.T @ QrQ @ V)
    g = Z.T @ (V.T @ np.einsum("ik,k->i", Q, b))
    # the Cholesky residual trace bounds the singular values it never reached;
    # n eps sum(g^2/lam) allows for rounding in the n states
    tail = float(diag.sum() + np.sum(sv[~keep] ** 2)
                 + len(lam) * np.finfo(float).eps * (g ** 2 @ (1.0 / lam)))
    return StateSpace(lam, g, tail, max(float(w.sum()), float(2.0 * lam @ g ** 2)))


@lru_cache(maxsize=32)
def realization(ff: RadialMeasure) -> StateSpace:
    """The measure's state-space realization, shared by every kappa and T."""
    r, w = merged(zip(*ff.rule())) if ff.is_discrete else ff.rule()
    r, w = r[w > 0.0], w[w > 0.0]
    if ff.is_discrete or not len(r):
        return StateSpace(r, np.sqrt(w / (2.0 * r)))
    return _balanced_truncation(r, w)


def _horizon(ff: RadialMeasure, kappa: float, T: float) -> tuple[float, StateSpace]:
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be positive, got {T}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be a nonnegative real, got {kappa}")
    return kappa * kappa * T, realization(ff)


def log_det(ff: RadialMeasure, kappa: float, T: float) -> float:
    """log det(1 + kappa^2 C_T) from the boundary identity in the module docstring."""
    S, ss = _horizon(ff, kappa, T)
    if S == 0.0 or not len(ss.lam):
        return 0.0
    mu, Dt, Dt_inv = ss.modes[:3]
    th = np.tanh(0.5 * mu * S)
    d1, d2 = np.sqrt(mu * th), np.sqrt(th / mu)
    return (ss.asymptote[0] * S + 2.0 * float(np.sum(np.log1p(0.5 * np.expm1(-mu * S))))
            + _log1p_det(d1[:, None] * Dt_inv * d1) + _log1p_det(d2[:, None] * Dt * d2))


@dataclass(frozen=True)
class ResolventSolution:
    """u_T at x = kappa^2 t: u_inf + sum_m a_m (e^{-mu_m x} + e^{-mu_m (S - x)})."""

    S: float
    u_inf: float
    a: np.ndarray
    mu: np.ndarray

    def at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        return self.u_inf + (np.exp(-self.mu * x) + np.exp(-self.mu * (self.S - x))) @ self.a

    def mean(self) -> float:
        """(1/S) int_0^S u, the mass functional (u_inf when there are no modes)."""
        muS = self.mu * self.S
        return self.u_inf - 2.0 * float(self.a @ (np.expm1(-muS) / muS))


def _kernel_applied(ss: StateSpace, u: ResolventSolution, x: np.ndarray) -> np.ndarray:
    """(K_S u)(x) in closed form."""
    S, mu, lam = u.S, u.mu, ss.lam[:, None]
    gap = np.abs(lam - mu)

    def conv(y):  # int_0^S e^{-lam |y - z|} e^{-mu z} dz, axes (y, lam, mu)
        y = y[:, None, None]
        left = np.exp(-np.minimum(lam, mu) * y) * np.where(
            gap * y > 0.0, -np.expm1(-gap * y) / np.where(gap > 0.0, gap, 1.0), y)
        return left - np.exp(-mu * y) * np.expm1(-(lam + mu) * (S - y)) / (lam + mu)

    flat = -(np.expm1(-ss.lam * x[:, None]) + np.expm1(-ss.lam * (S - x[:, None]))) / ss.lam
    return (u.u_inf * flat + (conv(x) + conv(S - x)) @ u.a) @ ss.g ** 2


def solve_uT(ff: RadialMeasure, kappa: float, T: float) -> ResolventSolution:
    """u_T = (1 + kappa^2 C_T)^{-1} 1 in closed form, as a function of x = kappa^2 t.

    The boundary conditions reduce to the SPD system (Q^T diag(lam) Q +
    diag(mu tanh(mu S/2))) beta = -2 u_inf e.  The residual u + K_S u - 1 must
    stay below RESIDUAL_TOL on order-4 Gauss panels over [0, S/2], graded
    by decades towards x = 0 (u is even about S/2).
    """
    S, ss = _horizon(ff, kappa, T)
    if S == 0.0 or not len(ss.lam):
        return ResolventSolution(S, 1.0, np.zeros(0), np.ones(0))
    mu, Dt, _, c, e, u_inf = ss.modes
    L = cho_factor(Dt + np.diag(mu * np.tanh(0.5 * mu * S)))
    beta = solve(L.T, solve(L, -2.0 * u_inf * e))
    u = ResolventSolution(S, u_inf, -c * beta / (1.0 + np.exp(-mu * S)), mu)
    cuts = 10.0 ** np.arange(-2.0, 6.0)
    edges = np.concatenate(([0.0], cuts[cuts < 0.5 * S], [0.5 * S]))
    # one panel at a time: _kernel_applied holds (nodes, n, n) arrays; np.max,
    # unlike max, keeps a NaN
    res = float(np.max([np.max(np.abs(u.at(x) + _kernel_applied(ss, u, x) - 1.0))
                        for x in np.reshape(gauss_panels(edges, 4)[0], (-1, 4))]))
    if not res <= RESIDUAL_TOL:
        raise NumericalError(f"u_T solve residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return u


def mass_functional(ff: RadialMeasure, kappa: float, T: float) -> float:
    """(1/T) <1, (1 + kappa^2 C_T)^{-1} 1>; lies in (0, 1], tends to 1/m_eff."""
    return solve_uT(ff, kappa, T).mean()


def vacuum_rate(ff: RadialMeasure, p: float, logdet_per_T: float, mass_fn: float) -> float:
    """-(1/T) log of the vacuum amplitude from one horizon's two values,
    (d_eff/2) (1/T) log det(1 + kappa^2 C_T) + (p^2/2) mass_functional."""
    return 0.5 * _effective_component_count(ff) * logdet_per_T + 0.5 * p * p * mass_fn


def vacuum_amplitude(ff: RadialMeasure, kappa: float, p: float, T: float) -> float:
    """(Omega, exp(-T H_dip,kappa(p)) Omega) = exp(-T vacuum_rate); the rate
    approaches dipole_dispersion(ff, kappa, p) as T grows."""
    rate = vacuum_rate(ff, p, log_det(ff, kappa, T) / T, mass_functional(ff, kappa, T))
    return math.exp(-T * rate)


def ak_convergence_report(ff: RadialMeasure, kappa: float, T_list) -> list[dict]:
    """Per-horizon rows: the log-det rate against its T -> inf limit ``ak_target``,
    kappa^2 times the realization's Ahiezer-Kac rate (the log-spectral value,
    exact for point masses), the constant term ``ak_B`` (T ak_dev -> ak_B), the
    bound ``disc_err`` on the truncation error, the mass functional against
    1/m_eff, and the state count ``n``."""
    T_list = list(T_list)
    if not T_list:
        raise ValueError("T_list must be nonempty")
    if any(b <= a for a, b in zip(T_list[:-1], T_list[1:])):
        raise ValueError("T_list must be increasing")
    ss = realization(ff)
    ak_target = kappa * kappa * ss.asymptote[0] if len(ss.lam) else 0.0
    mass_target = 1.0 / moment_report(ff).m_eff
    fixed = {"n": len(ss.lam), "ak_target": ak_target, "mass_target": mass_target,
             "ak_B": ss.asymptote[1] if len(ss.lam) and kappa > 0.0 else 0.0,
             "disc_err": ss.disc_err(kappa)}
    rows = []
    for T in T_list:
        rate, mass = log_det(ff, kappa, T) / T, mass_functional(ff, kappa, T)
        rows.append({"T": T, "logdet_per_T": rate, "ak_dev": rate - ak_target,
                     "mass_fn": mass, "mass_dev": mass - mass_target, **fixed})
    return rows
