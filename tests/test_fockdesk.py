import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from pfwcl import fockdesk
from pfwcl.energy import ground_energy as continuum_ground_energy
from pfwcl.energy import log_spectral_energy
from pfwcl.errors import BasisSizeError, NumericalError
from pfwcl.fockdesk import (bogoliubov_energy, build_basis, build_operators,
                            conjugation_residual, diamagnetic_check,
                            fiber_hamiltonian, ground_energy, ground_state,
                            semigroup_wcl_residual, wcl_scan)
from pfwcl.formfactor import PointMasses, RadialMeasure
from pfwcl.wienerhopf import log_det

TWO_MODE = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]


class TestBasis:
    def test_single_mode_dimension(self):
        assert build_basis([(1.0, 3.0, 0.0)], 3).dim == 4

    def test_two_mode_dimension(self):
        assert build_basis([(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)], 2).dim == 6

    def test_three_modes_forty_is_fine(self):
        # C(43, 3) = 12341 stays under the guard
        basis = build_basis([(1.0, 1.0, 0.0)] * 3, 40)
        assert basis.dim == math.comb(43, 3)

    def test_size_guard(self):
        # C(35, 5) = 324632 exceeds the 200000-state guard
        with pytest.raises(BasisSizeError):
            build_basis([(1.0, 1.0, 0.0)] * 5, 30)

    def test_index_round_trip(self):
        basis = build_basis([(1.0, 1.0, 0.1), (2.0, 1.0, -0.1)], 4)
        for pos, state in enumerate(basis.states):
            assert basis.position(state) == pos

    def test_ccr_on_interior(self):
        basis = build_basis([(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)], 6)
        interior = basis.states.sum(axis=1) <= basis.n_tot - 2
        eye = np.eye(basis.dim)
        for j in range(2):
            a = basis.annihilator(j)
            comm = (a @ a.T - a.T @ a).toarray()
            sub = comm[np.ix_(interior, interior)] - eye[np.ix_(interior, interior)]
            assert np.max(np.abs(sub)) < 1e-13
        a0, a1 = basis.annihilator(0), basis.annihilator(1)
        cross = (a0 @ a1.T - a1.T @ a0).toarray()
        assert np.max(np.abs(cross[np.ix_(interior, interior)])) == 0.0


class TestOperators:
    def test_hermitian_and_diagonal_structure(self):
        ops = build_operators(build_basis([(1.0, 1.0, 0.5), (2.0, 2.0, -0.5)], 5))
        A = ops.A.toarray()
        assert np.array_equal(A, A.T)
        Hf = ops.Hf.toarray()
        Pf = ops.Pf.toarray()
        assert np.count_nonzero(Hf - np.diag(np.diag(Hf))) == 0
        assert np.count_nonzero(Pf - np.diag(np.diag(Pf))) == 0
        occ = ops.basis.states
        assert np.allclose(np.diag(Hf), occ @ np.array([1.0, 2.0]))
        assert np.allclose(np.diag(Pf), occ @ np.array([0.5, -0.5]))

    def test_fiber_hamiltonian_symmetric(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.2)], 8))
        H = fiber_hamiltonian(ops, 2.0, 0.3, 0.7).toarray()
        assert np.allclose(H, H.T, atol=1e-13)

    def test_kappa_zero_is_diagonal_kinetic(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.4), (2.0, 1.0, -0.3)], 6))
        p, eps = 0.7, 1.0
        H = fiber_hamiltonian(ops, 0.0, p, eps).toarray()
        occ = ops.basis.states
        q = occ @ np.array([0.4, -0.3])
        expected = 0.5 * (p - eps * q) ** 2
        assert np.allclose(H, np.diag(expected), atol=1e-14)
        assert ground_energy(fiber_hamiltonian(ops, 0.0, p, eps)) == pytest.approx(
            float(expected.min()), abs=1e-12)

    def test_eps_irrelevant_when_momenta_vanish(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.0), (2.0, 1.0, 0.0)], 6))
        h0 = fiber_hamiltonian(ops, 1.5, 0.4, 0.0).toarray()
        h1 = fiber_hamiltonian(ops, 1.5, 0.4, 1.0).toarray()
        assert np.array_equal(h0, h1)

    def test_eps_out_of_range(self):
        ops = build_operators(build_basis([(1.0, 1.0, 0.0)], 4))
        with pytest.raises(ValueError):
            fiber_hamiltonian(ops, 1.0, 0.0, 1.5)


class TestGroundEnergy:
    def test_diagonal_matrix(self):
        d = np.diag([3.0, -1.5, 0.2])
        assert ground_energy(d) == -1.5

    def test_single_mode_oscillator(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.0)], 60))
        e = ground_energy(fiber_hamiltonian(ops, 1.0, 0.0, 0.0))
        assert e == pytest.approx(0.5, abs=1e-6)

    def test_dense_matches_bogoliubov(self):
        # dim 1326, above DENSE_DIM_LIMIT: the Lanczos branch
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        ops = build_operators(build_basis(modes, 50))
        dense = ground_energy(ops.half_A2_plus_Hf())
        assert dense == pytest.approx(bogoliubov_energy(modes), abs=1e-6)

    def test_dense_branch_matches_bogoliubov(self):
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        ops = build_operators(build_basis(modes, 24))     # dim 325
        assert ops.dim <= fockdesk.DENSE_DIM_LIMIT
        dense = ground_energy(ops.half_A2_plus_Hf())
        assert dense == pytest.approx(bogoliubov_energy(modes), abs=1e-6)


class TestGroundState:
    @pytest.mark.parametrize("n_tot", [24, 30, 44])   # dim 325 dense; 496, 1035 Lanczos
    def test_matches_dense_eigh(self, n_tot):
        ops = build_operators(build_basis(TWO_MODE, n_tot))
        assert (ops.dim <= fockdesk.DENSE_DIM_LIMIT) == (n_tot == 24)
        for kappa, p in ((1.0, 0.0), (4.0, 0.2)):
            H = fiber_hamiltonian(ops, kappa, p, 1.0)
            lam, vec = ground_state(H)
            exact = scipy.linalg.eigh(H.toarray(), eigvals_only=True,
                                      subset_by_index=[0, 0])[0]
            assert abs(lam - exact) <= 1e-11 * max(1.0, abs(exact))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(H @ vec - lam * vec) <= 1e-9 * max(1.0, abs(lam))
            assert ground_energy(H) == lam

    def test_ground_vector_computed_once(self, monkeypatch):
        ops = build_operators(build_basis(TWO_MODE, 8))
        shapes = []
        real = fockdesk.ground_state

        def counted(matrix, *args):
            shapes.append(matrix.shape)
            return real(matrix, *args)

        monkeypatch.setattr(fockdesk, "ground_state", counted)
        for kappa in (1.0, 2.0):
            semigroup_wcl_residual(ops, kappa, 0.2, 1.0)
        assert shapes == [(ops.dim, ops.dim)]
        assert ops.ground_vector is ops.ground_vector


class TestWorkCounts:
    """Regression on work, not time, on the dim-1953 two-mode model."""

    @staticmethod
    def _count(monkeypatch, dim):
        """Record the solver calls fockdesk makes on dim x dim matrices."""
        calls = []

        def square(a, *args, **kwargs):
            return np.shape(a) == (dim, dim)

        def matrix_2norm(a, ord=None, *args, **kwargs):
            return np.ndim(a) == 2 and ord == 2    # a full SVD

        def spy(real, label, counts):
            def wrapper(*args, **kwargs):
                if counts is None or counts(*args, **kwargs):
                    calls.append(label)
                return real(*args, **kwargs)
            return wrapper

        for owner, name, label, counts in (
                (fockdesk, "eigh", "eigh", square),
                (np.linalg, "eigh", "eigh", square),
                (fockdesk, "eigsh", "eigsh", None),
                (fockdesk, "svds", "svds", None),
                (np.linalg, "svd", "svd", square),
                (scipy.linalg, "svd", "svd", square),
                (np.linalg, "norm", "svd", matrix_2norm)):
            monkeypatch.setattr(owner, name, spy(getattr(owner, name), label, counts))
        return calls

    def test_scan_is_all_lanczos(self, two_mode_ops, monkeypatch):
        calls = self._count(monkeypatch, two_mode_ops.dim)
        wcl_scan(two_mode_ops, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2], 1.0)
        assert calls == ["eigsh"] * 8

    def test_semigroup_one_dense_eigh_no_svd(self, two_mode_ops, monkeypatch):
        two_mode_ops.ground_vector   # the cached kappa-independent projector
        calls = self._count(monkeypatch, two_mode_ops.dim)
        semigroup_wcl_residual(two_mode_ops, 1.0, 0.2, 1.0)
        assert calls == ["eigh", "svds"]


class TestBogoliubov:
    def test_single_atom(self):
        assert bogoliubov_energy([(1.0, 3.0)]) == pytest.approx(0.5, rel=1e-14)

    def test_zero_weights(self):
        assert bogoliubov_energy([(1.0, 0.0), (2.0, 0.0)]) == 0.0

    def test_two_mode_closed_form(self):
        # eigenvalues of [[1,0],[0,4]] + v v^T, v = (1, sqrt(2))
        mu = np.linalg.eigvalsh(np.diag([1.0, 4.0])
                                + np.outer([1.0, math.sqrt(2)], [1.0, math.sqrt(2)]))
        expected = 0.5 * (np.sqrt(mu).sum() - 3.0)
        assert bogoliubov_energy([(1.0, 1.0), (2.0, 2.0)]) == pytest.approx(
            expected, rel=1e-14)

    def test_oracle_chain(self):
        # dense Fock ~ Bogoliubov = continuum ground energy
        #   = log-spectral / 2 ~ (1/2T) log det
        atoms = [(1.0, 1.0), (2.0, 2.0)]
        modes = [(w, W, 0.0) for w, W in atoms]
        bogo = bogoliubov_energy(atoms)
        dense = ground_energy(
            build_operators(build_basis(modes, 40)).half_A2_plus_Hf())
        assert dense == pytest.approx(bogo, abs=1e-6)
        measure = RadialMeasure(3, PointMasses(atoms))
        cont = continuum_ground_energy(measure).calE
        assert cont == pytest.approx(bogo, rel=1e-9)
        assert 0.5 * log_spectral_energy(measure, 1.0) == pytest.approx(bogo, rel=1e-9)
        rate = log_det(measure, 1.0, 40.0) / 80.0
        assert rate == pytest.approx(bogo, rel=0.02)


class TestConjugation:
    def test_identity_at_zero_momentum(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.0)], 20))
        assert conjugation_residual(ops, 1.0, 0.0) == 0.0

    def test_refinement_in_truncation(self):
        # displacement large enough that the truncation error is visible
        res = {}
        for n_tot in (20, 40):
            ops = build_operators(build_basis([(1.0, 3.0, 0.0)], n_tot))
            res[n_tot] = conjugation_residual(ops, 1.0, 6.0)
        assert res[40] <= res[20]
        # at the documented small displacement both rungs sit at round-off
        small = {}
        for n_tot in (20, 40):
            ops = build_operators(build_basis([(1.0, 3.0, 0.0)], n_tot))
            small[n_tot] = conjugation_residual(ops, 1.0, 0.5)
        assert small[40] <= max(small[20], 1e-12)

    def test_kappa_trend_reported(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.0)], 8))
        res = [conjugation_residual(ops, kap, 6.0) for kap in (1.0, 2.0, 4.0, 8.0)]
        assert res[0] > res[1] > res[2] > res[3]


class TestScan:
    def test_zero_momentum_row(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.3)], 12))
        rows = wcl_scan(ops, [2.0], [0.0], 1.0)
        assert rows[0]["gap"] == 0.0
        assert rows[0]["gap_dev"] == 0.0

    def test_dipole_rows_kappa_independent(self):
        modes = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]
        ops = build_operators(build_basis(modes, 30))
        rows = wcl_scan(ops, [1.0, 2.0, 4.0], [0.2], 0.0)
        gaps = [r["gap"] for r in rows]
        assert max(gaps) - min(gaps) <= 1e-8
        # dipole structure: gap = p^2/(2 m_eff_disc) up to truncation error
        assert gaps[0] == pytest.approx(0.2**2 / (2 * 2.5), abs=1e-7)

    def test_empty_lists_rejected(self):
        ops = build_operators(build_basis([(1.0, 1.0, 0.0)], 4))
        with pytest.raises(ValueError):
            wcl_scan(ops, [], [0.1], 0.0)


class TestDiamagnetic:
    def test_zero_momentum_equality(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.6)], 20))
        rows = diamagnetic_check(ops, 2.0, [0.0])
        assert rows[0]["excess"] == 0.0 and rows[0]["ok"]

    def test_single_mode_inequality(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.6)], 40))
        rows = diamagnetic_check(ops, 2.0, [0.3])
        assert rows[0]["ok"]
        assert rows[0]["E_0"] <= rows[0]["E_p"] + 1e-6

    def test_kappa_zero_diagonal_case(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.6)], 10))
        rows = diamagnetic_check(ops, 0.0, [0.4, 1.2])
        for row in rows:
            assert row["ok"]


class TestSemigroup:
    def test_time_zero_projector_defect(self):
        ops = build_operators(build_basis([(1.0, 1.0, 0.3), (2.0, 2.0, -0.3)], 8))
        res = semigroup_wcl_residual(ops, 1.0, 0.0, 0.0)
        assert res == pytest.approx(1.0, abs=1e-10)  # ||I - P_g||

    def test_null_coupling_reported(self):
        ops = build_operators(build_basis([(1.0, 0.0, 0.3), (2.0, 0.0, -0.3)], 6))
        res = semigroup_wcl_residual(ops, 1.0, 0.2, 1.0)
        assert 0.0 <= res <= 1.0

    @pytest.mark.parametrize("kappa", [1.0, 4.0])
    def test_matches_dense_reference(self, kappa):
        # the full-decomposition formula: both eigh's, dense P_g, full SVD
        ops = build_operators(build_basis(TWO_MODE, 20))
        p, T = 0.2, 1.0
        lam, Q = np.linalg.eigh(fiber_hamiltonian(ops, kappa, p, 1.0).toarray())
        shift = kappa**2 * bogoliubov_energy(TWO_MODE)
        left = (Q * np.exp(np.clip(-T * (lam - shift), -745.0, 50.0))) @ Q.T
        g = np.linalg.eigh(ops.half_A2_plus_Hf().toarray())[1][:, 0]
        free = np.exp(np.clip(-T * (p - ops.Pf.diagonal()) ** 2 / (2.0 * ops.m_eff()),
                              -745.0, 50.0))
        reference = np.linalg.norm(left - np.outer(g, g) * free[None, :], 2)
        assert semigroup_wcl_residual(ops, kappa, p, T) == pytest.approx(
            reference, rel=1e-12)

    def test_norm_failure_names_stage(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(fockdesk, "svds", no_convergence)
        ops = build_operators(build_basis(TWO_MODE, 6))
        with pytest.raises(NumericalError, match="semigroup operator norm"):
            semigroup_wcl_residual(ops, 1.0, 0.2, 1.0)

    def test_kappa_ladder_small_model(self):
        ops = build_operators(build_basis([(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)], 20))
        res = [semigroup_wcl_residual(ops, kap, 0.2, 1.0) for kap in (1.0, 2.0, 4.0)]
        assert res[0] > res[1] > res[2]


class TestDeskLimitCheck:
    def test_e0_deviation_shrinks_under_refinement(self):
        # |E_kappa(0) - kappa^2 E_bogo| shrinks as N_tot grows, settling on
        # the plateau intrinsic to the discrete-mode model (the squared
        # truncated field breaks strict variational monotonicity, so the
        # first rung starts above the refined ones)
        modes = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]
        ref = bogoliubov_energy(modes)
        devs = []
        for n_tot in (2, 4, 8, 16):
            ops = build_operators(build_basis(modes, n_tot))
            e0 = ground_energy(fiber_hamiltonian(ops, 1.0, 0.0, 1.0))
            devs.append(abs(e0 - ref))
        assert devs[0] > devs[1] >= devs[2] >= devs[3]
