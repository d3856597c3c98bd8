"""Nystrom discretization of the truncated Wiener-Hopf operator C_T.

(C_T u)(t) = int_0^T rho(s - t) u(s) ds with the difference kernel rho from
the energy module, the exact sum over the measure's radial rule

    rho(tau) = sum_k w_k / (2 r_k) exp(-kappa^2 r_k |tau|).

The kernel matrix is symmetrized as M_ij = sqrt(w_i) rho(t_i - t_j) sqrt(w_j);
one Cholesky factor U of 1 + kappa^2 M gives log det = 2 sum log diag U and
the u_T solve.  The panels have equal width, so M is block Toeplitz (rho is
evaluated once per panel distance and node pair) and exactly symmetric.
Horizons of one panel width share their leading nodes, weights and entries
bit for bit, so a T-ladder factors one grid per width and reads each horizon
from a leading block, whose U is the leading block of the full U.

M must be PSD up to min eig >= -PSD_EIG_TOL max |eig|.  A Cholesky of
M + (PSD_EIG_TOL/2) max(diag M) that succeeds certifies it, as max diag M <=
lambda_max, and by Cauchy interlacing for every leading block of whole panels
(same max diag M).  Where it fails, the eigenvalues decide.

Verified limits (both as T -> infinity):

    (1/T) log det(1 + kappa^2 C_T)     -> (1/2 pi) int log(1 + kappa^2 rho_hat)
    (1/T) <1, (1 + kappa^2 C_T)^{-1} 1> -> 1 / m_eff

and the closed-form vacuum amplitude of the dipole fiber semigroup

    det(1 + kappa^2 C~_T)^{-1/2} exp(-(1/2) <p 1, (1 + kappa^2 C~_T)^{-1} p 1>)

with C~_T a d_eff-fold direct sum of C_T (handled algebraically, never by
building a d * n matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh

from .energy import SpectralFunctions, _effective_component_count, log_spectral_energy
from .errors import NumericalError
from .formfactor import RadialMeasure, moment_report
from .quadrature import _gl_rule

PANEL_ORDER = 8
PSD_EIG_TOL = 1e-10
DEFAULT_NODES_PER_UNIT_T = 40
NODE_CAP = 4000


def default_node_count(T: float) -> int:
    return min(NODE_CAP, max(PANEL_ORDER, PANEL_ORDER * math.ceil(
        DEFAULT_NODES_PER_UNIT_T * T / PANEL_ORDER)))


def _panel_count(n: int) -> int:
    return max(1, math.ceil(n / PANEL_ORDER))


def composite_gauss_nodes(T: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width composite Gauss-Legendre rule with >= n nodes on [0, T]; sum(w) = T."""
    panels = _panel_count(n)
    h = T / panels
    x, w = _gl_rule(PANEL_ORDER)
    nodes = ((np.arange(panels)[:, None] + 0.5 * (1.0 + x)) * h).ravel()
    return nodes, np.tile(0.5 * h * w, panels)


def _kernel_blocks(ff: RadialMeasure, kappa: float, h: float, panels: int) -> np.ndarray:
    """rho_kappa between the nodes of two panels m = 0..panels-1 apart.

    Entry [m, i, j] is rho((m + (x_i - x_j)/2) h) for the panel's Gauss nodes
    x; one panel distance at a time keeps the work array at 64 rule sums.
    """
    x, _ = _gl_rule(PANEL_ORDER)
    local = 0.5 * (x[:, None] - x[None, :])
    sf = SpectralFunctions(ff, kappa=kappa)
    blocks = np.array([sf.rho((m + local) * h) for m in range(panels)])
    # rho is even, so the m = 0 block is symmetric; mirror it so it is exactly
    blocks[0] = np.triu(blocks[0]) + np.triu(blocks[0], 1).T
    return blocks


@dataclass(eq=False)
class WienerHopfGrid:
    """Symmetrized Nystrom discretization of 1 + kappa^2 C_T."""

    ff: RadialMeasure
    kappa: float
    T: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    M: np.ndarray
    _eigs: np.ndarray | None = field(default=None, repr=False)
    _cho: tuple | None = field(default=None, repr=False)
    _full: WienerHopfGrid | None = field(default=None, repr=False)
    _psd_certified: bool | None = field(default=None, repr=False)

    def eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            try:
                self._eigs = eigvalsh(self.M)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        return self._eigs

    def leading(self, T: float, n: int) -> WienerHopfGrid:
        """Horizon T on the first n nodes (whole panels): a view sharing M and U."""
        return WienerHopfGrid(ff=self.ff, kappa=self.kappa, T=T, n=n, nodes=self.nodes[:n],
                              weights=self.weights[:n], M=self.M[:n, :n],
                              _full=self._full or self)


def build_grid(ff: RadialMeasure, kappa: float, T: float, n: int | None = None) -> WienerHopfGrid:
    """Discretize C_T with composite Gauss-Legendre panels (n >= 8 nodes)."""
    if not T > 0.0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if n is None:
        n = default_node_count(T)
    if n < PANEL_ORDER:
        raise ValueError(f"need at least {PANEL_ORDER} nodes, got {n}")
    nodes, weights = composite_gauss_nodes(T, n)
    panels = len(nodes) // PANEL_ORDER
    sqw = np.sqrt(weights[:PANEL_ORDER])
    blocks = np.outer(sqw, sqw) * _kernel_blocks(ff, kappa, T / panels, panels)
    # ladder[panels - 1 + p - q] is block (p, q): B_{p-q} below the diagonal,
    # B_{q-p}^T above it
    ladder = np.concatenate((blocks[:0:-1].transpose(0, 2, 1), blocks))
    M = np.empty((len(nodes), len(nodes)))
    rows = M.reshape(panels, PANEL_ORDER, panels, PANEL_ORDER)
    for p in range(panels):
        rows[p] = ladder[p:p + panels][::-1].transpose(1, 0, 2)
    return WienerHopfGrid(ff=ff, kappa=kappa, T=T, n=len(nodes),
                          nodes=nodes, weights=weights, M=M)


def _check_psd(grid: WienerHopfGrid) -> None:
    """Raise NumericalError unless min eig M >= -PSD_EIG_TOL * max |eig M|."""
    full = grid._full or grid
    if full._psd_certified is None:
        A = full.M.copy()
        A.flat[::full.n + 1] += 0.5 * PSD_EIG_TOL * float(np.max(np.diag(full.M)))
        try:  # A is exactly symmetric: A.T is A in Fortran order, factored in place
            cho_factor(A.T, overwrite_a=True)
            full._psd_certified = True
        except np.linalg.LinAlgError:
            full._psd_certified = False
    if not full._psd_certified:
        lams = grid.eigenvalues()
        scale = max(abs(float(lams[0])), abs(float(lams[-1])), 1e-300)
        if float(lams[0]) < -PSD_EIG_TOL * scale:
            raise NumericalError(
                f"kernel matrix not numerically PSD: min eigenvalue {lams[0]:.3e} "
                f"below -{PSD_EIG_TOL:.0e} * {scale:.3e}")


def _cholesky(grid: WienerHopfGrid):
    """(U, False) with U^T U = 1 + kappa^2 M; a leading view reads its block."""
    if grid._cho is None and grid._full is not None:
        c, lower = _cholesky(grid._full)
        grid._cho = (c[:grid.n, :grid.n], lower)
    if grid._cho is None:
        A = grid.kappa**2 * grid.M
        A.flat[::grid.n + 1] += 1.0
        try:
            grid._cho = cho_factor(A.T, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky of 1 + kappa^2 M failed: {exc}") from exc
    return grid._cho


def log_det(grid: WienerHopfGrid) -> float:
    """log det(1 + kappa^2 C_T) = 2 sum log diag U, after the PSD check of M."""
    if grid.kappa == 0.0:
        return 0.0
    _check_psd(grid)
    c, _ = _cholesky(grid)
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def solve_uT(grid: WienerHopfGrid) -> np.ndarray:
    """Node values of u_T = (1 + kappa^2 C_T)^{-1} 1.

    Solved through the symmetrized system; the discrete residual
    u + kappa^2 W rho u - 1 must stay below 1e-10 in max norm.
    """
    sqw = np.sqrt(grid.weights)
    y = cho_solve(_cholesky(grid), sqw)
    u = y / sqw
    residual = (y + grid.kappa**2 * (grid.M @ y) - sqw) / sqw
    res = float(np.max(np.abs(residual)))
    if res > 1e-10:
        raise NumericalError(f"u_T solve residual {res:.3e} exceeds 1e-10")
    return u


def mass_functional(grid: WienerHopfGrid) -> float:
    """(1/T) <1, (1 + kappa^2 C_T)^{-1} 1>; lies in (0, 1], tends to 1/m_eff."""
    u = solve_uT(grid)
    return float(grid.weights @ u) / grid.T


def vacuum_rate(ff: RadialMeasure, p: float, logdet_per_T: float, mass_fn: float) -> float:
    """-(1/T) log of the vacuum amplitude from one horizon's two values:

        (d_eff/2) (1/T) log det(1 + kappa^2 C_T) + (p^2/2) mass_functional,

    so a ladder row gives the rate without building its grid again.
    """
    return 0.5 * _effective_component_count(ff) * logdet_per_T + 0.5 * p * p * mass_fn


def vacuum_amplitude(ff: RadialMeasure, kappa: float, p: float, T: float,
                     n: int | None = None) -> float:
    """(Omega, exp(-T H_dip,kappa(p)) Omega) = exp(-T vacuum_rate) from the
    determinant formula; the rate approaches dipole_dispersion(ff, kappa, p)
    as T grows.
    """
    grid = build_grid(ff, kappa, T, n)
    rate = vacuum_rate(ff, p, log_det(grid) / grid.T, mass_functional(grid))
    return math.exp(-grid.T * rate)


def ak_convergence_report(ff: RadialMeasure, kappa: float, T_list,
                          n: int | None = None) -> list[dict]:
    """Per-horizon deviations from the two T -> infinity limits.

    ``n`` fixes the node count for every horizon; by default the count scales
    as 40 nodes per unit T (capped).  Rows carry the log-determinant rate
    against the log-spectral target and the mass functional against 1/m_eff.
    Horizons of one panel width share the grid of the largest of them.
    """
    T_list = list(T_list)
    if not T_list:
        raise ValueError("T_list must be nonempty")
    if any(b <= a for a, b in zip(T_list[:-1], T_list[1:])):
        raise ValueError("T_list must be increasing")
    ak_target = log_spectral_energy(ff, kappa)
    mass_target = 1.0 / moment_report(ff).m_eff
    widths = {}
    for T in T_list:
        n_T = default_node_count(T) if n is None else n
        widths.setdefault(T / _panel_count(n_T), []).append((T, n_T))
    rows = {}
    for rungs in widths.values():
        grid = build_grid(ff, kappa, *rungs[-1])
        for T, n_T in rungs:
            rung = grid.leading(T, PANEL_ORDER * _panel_count(n_T))
            rate = log_det(rung) / T
            mass = mass_functional(rung)
            rows[T] = {"T": T, "n": rung.n, "logdet_per_T": rate, "ak_target": ak_target,
                       "ak_dev": rate - ak_target, "mass_fn": mass,
                       "mass_target": mass_target, "mass_dev": mass - mass_target}
    return [rows[T] for T in T_list]
