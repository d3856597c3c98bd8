import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from pfwcl import fockdesk
from pfwcl.energy import ground_energy as continuum_ground_energy
from pfwcl.energy import log_spectral_energy
from pfwcl.errors import BasisSizeError, NumericalError
from pfwcl.fockdesk import (bogoliubov_energy, build_basis, build_operators,
                            conjugation_residual, diamagnetic_check,
                            fiber_hamiltonian, ground_state,
                            semigroup_wcl_residual, wcl_scan)
from pfwcl.formfactor import PointMasses, RadialMeasure
from pfwcl.wienerhopf import log_det

TWO_MODE = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]


def _loop_states(M, n_tot):
    """The per-state reference enumeration: multisets of size k over M modes,
    k = 0 .. n_tot, each in itertools order, with a tuple -> position dict."""
    states = []
    for k in range(n_tot + 1):
        for combo in itertools.combinations_with_replacement(range(M), k):
            states.append([combo.count(j) for j in range(M)])
    states = np.array(states, dtype=np.int64)
    return states, {tuple(int(v) for v in s): i for i, s in enumerate(states)}


def _loop_operators(modes, n_tot):
    """H_f, P_f, A and the dressing generator from per-state annihilator loops."""
    states, index = _loop_states(len(modes), n_tot)
    dim = len(states)
    occ = states.astype(float)
    A = sp.csr_matrix((dim, dim))
    G = sp.csr_matrix((dim, dim))
    for j, (omega, weight, _) in enumerate(modes):
        rows, cols, data = [], [], []
        for pos, state in enumerate(states):
            if state[j] == 0:
                continue
            lowered = state.copy()
            lowered[j] -= 1
            rows.append(index[tuple(lowered)])
            cols.append(pos)
            data.append(math.sqrt(state[j]))
        a = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
        g = math.sqrt(weight / omega)
        A = A + g / math.sqrt(2.0) * (a + a.T)
        G = G + g / (omega * math.sqrt(2.0)) * (a.T - a)
    return {"Hf": sp.diags(occ @ np.array([m[0] for m in modes])).tocsr(),
            "Pf": sp.diags(occ @ np.array([m[2] for m in modes])).tocsr(),
            "A": A.tocsr(), "shift_generator": G.tocsr()}


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

    @pytest.mark.parametrize("occupation", [(5, 0), (0, -1), (1, 1, 0)])
    def test_position_outside_basis(self, occupation):
        basis = build_basis([(1.0, 1.0, 0.1), (2.0, 1.0, -0.1)], 4)
        with pytest.raises(KeyError):
            basis.position(occupation)

    @pytest.mark.parametrize("modes,n_tot", [
        ([(1.0, 3.0, 0.0)], 20),
        ([(1.0, 1.0, 0.1), (1.5, 0.5, 0.2), (2.0, 2.0, -0.3)], 12),
        ([(1.0, 1.0, 0.1)] * 6, 4)])
    def test_states_match_loop_order(self, modes, n_tot):
        states, _ = _loop_states(len(modes), n_tot)
        basis = build_basis(modes, n_tot)
        assert basis.states.dtype == states.dtype
        assert np.array_equal(basis.states, states)
        assert np.array_equal(basis.rank(basis.states), np.arange(basis.dim))

    @pytest.mark.parametrize("n_tot", [8, 30, 61])
    def test_operators_byte_equal_to_loop_construction(self, n_tot):
        ops = build_operators(build_basis(TWO_MODE, n_tot))
        reference = _loop_operators(TWO_MODE, n_tot)
        for name in ("Hf", "Pf", "A", "shift_generator"):
            got, want = getattr(ops, name), reference[name]
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)

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
        assert ground_state(fiber_hamiltonian(ops, 0.0, p, eps))[0] == pytest.approx(
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

    def test_shift_generator_built_on_first_read(self):
        # the scan never reads the dressing generator; conjugation_residual does
        ops = build_operators(build_basis(TWO_MODE, 8))
        assert "shift_generator" not in vars(ops)
        wcl_scan(ops, [1.0], [0.0, 0.2], 1.0)
        assert "shift_generator" not in vars(ops)
        conjugation_residual(ops, 1.0, 0.2)
        assert vars(ops)["shift_generator"] is ops.shift_generator


class TestGroundEnergy:
    def test_diagonal_matrix(self):
        d = np.diag([3.0, -1.5, 0.2])
        assert ground_state(d)[0] == -1.5

    def test_single_mode_oscillator(self):
        ops = build_operators(build_basis([(1.0, 3.0, 0.0)], 60))
        e = ground_state(fiber_hamiltonian(ops, 1.0, 0.0, 0.0))[0]
        assert e == pytest.approx(0.5, abs=1e-6)

    def test_dense_matches_bogoliubov(self):
        # dim 1326, above DENSE_DIM_LIMIT: the Lanczos branch
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        ops = build_operators(build_basis(modes, 50))
        dense = ground_state(fiber_hamiltonian(ops, 1.0, 0.0, 0.0))[0]
        assert dense == pytest.approx(bogoliubov_energy(modes), abs=1e-6)

    def test_dense_branch_matches_bogoliubov(self):
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        ops = build_operators(build_basis(modes, 24))     # dim 325
        assert ops.dim <= fockdesk.DENSE_DIM_LIMIT
        dense = ground_state(fiber_hamiltonian(ops, 1.0, 0.0, 0.0))[0]
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
            assert ground_state(H)[0] == lam

    def test_ground_vector_computed_once(self, monkeypatch):
        ops = build_operators(build_basis(TWO_MODE, 8))
        projector = fiber_hamiltonian(ops, 1.0, 0.0, 0.0)
        solved = []
        real = fockdesk.ground_state

        def counted(matrix, *args):
            solved.append("P_g" if abs(matrix - projector).max() == 0.0 else "lambda_0")
            return real(matrix, *args)

        monkeypatch.setattr(fockdesk, "ground_state", counted)
        for kappa in (1.0, 2.0):
            semigroup_wcl_residual(ops, kappa, 0.2, 1.0)
        # the projector's matrix is solved once; each call solves its own H
        # for the bottom of the Chebyshev interval
        assert solved == ["lambda_0", "P_g", "lambda_0"]
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

    def test_semigroup_one_eigsh_one_svds_no_dense(self, two_mode_ops, monkeypatch):
        # one Lanczos solve for the bottom of the Chebyshev interval, one
        # matrix-free norm; no dim x dim eigh or SVD
        two_mode_ops.ground_vector   # the cached kappa-independent projector
        calls = self._count(monkeypatch, two_mode_ops.dim)
        semigroup_wcl_residual(two_mode_ops, 1.0, 0.2, 1.0)
        assert calls == ["eigsh", "svds"]


class TestBogoliubov:
    def test_single_atom(self):
        assert bogoliubov_energy([(1.0, 3.0)]) == pytest.approx(0.5, rel=1e-14)

    def test_zero_weights(self):
        assert bogoliubov_energy([(1.0, 0.0), (2.0, 0.0)]) == 0.0

    @pytest.mark.parametrize("omega, W", [(10.0, 0.01), (30.0, 2e-3), (100.0, 1e-3),
                                          (1e3, 1e-3), (1e-2, 1e3)])
    def test_stiff_single_atom_closed_form(self, omega, W):
        # sqrt(omega^2 + W) - omega without the cancellation
        exact = W / (2.0 * (math.sqrt(omega * omega + W) + omega))
        assert bogoliubov_energy([(omega, W)]) == pytest.approx(exact, rel=1e-14, abs=0)

    def test_equal_frequencies_merge_and_zero_weights_drop(self):
        assert bogoliubov_energy([(1.0, 1.0), (2.0, 0.0), (1.0, 2.0)]) == bogoliubov_energy(
            [(1.0, 3.0)])

    def test_matches_mpmath_eigenvalues(self):
        # 60 random 1-4 atom models against diag(omega^2) + v v^T at 50 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        rng = np.random.default_rng(7)
        for _ in range(60):
            atoms = [(10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-3, 3))
                     for _ in range(rng.integers(1, 5))]
            with mp.workdps(50):
                omega = [mp.mpf(w) for w, _ in atoms]
                root = mp.matrix([mp.sqrt(W) for _, W in atoms])
                mu = mp.eigsy(mp.diag([w**2 for w in omega]) + root * root.T,
                              eigvals_only=True)
                exact = float(sum(mp.sqrt(m) for m in mu) / 2 - sum(omega) / 2)
            assert bogoliubov_energy(atoms) == pytest.approx(exact, rel=1e-14, abs=0), atoms

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
        ops = build_operators(build_basis(modes, 40))
        dense = ground_state(fiber_hamiltonian(ops, 1.0, 0.0, 0.0))[0]
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

    def test_identity_without_coupling(self):
        # G = 0: the dressing is the identity and the identity holds exactly
        ops = build_operators(build_basis([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 4))
        assert conjugation_residual(ops, 1.0, 0.5) == 0.0

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

    @pytest.mark.parametrize("modes,n_tot,kappa,p", [
        ([(1.0, 3.0, 0.0)], 20, 1.0, -3.0),
        (TWO_MODE, 10, 4.0, 6.0),
        (TWO_MODE, 20, 1.0, 6.0)])
    def test_matches_dense_expm(self, modes, n_tot, kappa, p):
        # the dense formula: U = expm(s G), R = U^T H_dip U - target on low states
        ops = build_operators(build_basis(modes, n_tot))
        m_star = ops.m_eff()
        U = scipy.linalg.expm((p / (kappa * m_star)) * ops.shift_generator.toarray())
        H_dip = fiber_hamiltonian(ops, kappa, p, 0.0).toarray()
        target = (p * p / (2 * m_star)) * np.eye(ops.dim) \
            + kappa**2 * fiber_hamiltonian(ops, 1.0, 0.0, 0.0).toarray()
        low = ops.basis.states.sum(axis=1) <= n_tot // 2
        R = (U.T @ H_dip @ U - target)[np.ix_(low, low)]
        reference = np.linalg.norm(R, 2)
        assert conjugation_residual(ops, kappa, p) == pytest.approx(reference, rel=1e-10)

    def test_runs_above_old_dense_limit(self):
        # dim 2016 > 2000, the size the dense expm refused; the truncation
        # error at a large displacement keeps shrinking with N_tot
        big = build_operators(build_basis(TWO_MODE, 62))
        small = build_operators(build_basis(TWO_MODE, 40))
        assert big.dim == 2016
        assert conjugation_residual(big, 1.0, 6.0) < 0.01 * conjugation_residual(small, 1.0, 6.0)
        assert conjugation_residual(big, 1.0, 0.2) < 1e-12


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

    def test_top_shell_weight(self):
        # the ground vector's weight on sum n = N_tot, from the dense eigenvector
        ops = build_operators(build_basis(TWO_MODE, 10))
        rows = wcl_scan(ops, [1.0, 4.0], [0.0, 0.2], 1.0)
        top = ops.basis.states.sum(axis=1) == 10
        for row in rows:
            H = fiber_hamiltonian(ops, row["kappa"], row["p"], 1.0).toarray()
            vec = np.linalg.eigh(H)[1][:, 0]
            assert row["top_shell"] == pytest.approx(np.sum(vec[top] ** 2), rel=1e-8)
        # a truncation indicator: it falls as the truncation grows
        finer = wcl_scan(build_operators(build_basis(TWO_MODE, 20)), [1.0, 4.0],
                         [0.0, 0.2], 1.0)
        for coarse, fine in zip(rows, finer):
            assert 0.0 < fine["top_shell"] < 1e-3 * coarse["top_shell"] < 1e-6


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

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_uncoupled_closed_form(self, kappa):
        # no coupling, no mode momenta: H = p^2/2 + kappa^2 H_f is diagonal
        # (at kappa = 0 a multiple of 1, a zero-width interval), E_disc = 0,
        # m_eff = 1 and P_g is the vacuum, so the residual is the largest
        # non-vacuum entry exp(-T (p^2/2 + kappa^2 omega_min))
        ops = build_operators(build_basis([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 4))
        p, T = 0.5, 2.0
        assert semigroup_wcl_residual(ops, kappa, p, T) == pytest.approx(
            math.exp(-T * (p * p / 2 + kappa**2)), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1.0, 4.0])
    def test_matches_dense_reference(self, kappa):
        # the full-decomposition formula: both eigh's, dense P_g, full SVD
        ops = build_operators(build_basis(TWO_MODE, 20))
        p, T = 0.2, 1.0
        lam, Q = np.linalg.eigh(fiber_hamiltonian(ops, kappa, p, 1.0).toarray())
        shift = kappa**2 * bogoliubov_energy(TWO_MODE)
        left = (Q * np.exp(np.clip(-T * (lam - shift), -745.0, 50.0))) @ Q.T
        g = np.linalg.eigh(fiber_hamiltonian(ops, 1.0, 0.0, 0.0).toarray())[1][:, 0]
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

    def test_matches_mpmath_oracle(self):
        # the same float64 operators, decomposed and exponentiated at 34 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        ops = build_operators(build_basis(TWO_MODE, 6))
        assert ops.dim == 28
        kappa, p, T = 4.0, 0.2, 1.0
        with mp.workdps(34):
            def exact(sparse):
                return mp.matrix([[mp.mpf(float(x)) for x in row] for row in sparse.toarray()])

            lam, Q = mp.eigsy(exact(fiber_hamiltonian(ops, kappa, p, 1.0)))
            omega = [mp.mpf(w) for w, _, _ in TWO_MODE]
            root = [mp.sqrt(W) for _, W, _ in TWO_MODE]
            mu = mp.eigsy(mp.diag([w**2 for w in omega])
                          + mp.matrix(root) * mp.matrix(root).T, eigvals_only=True)
            e_disc = mp.fsum(mp.sqrt(m) - w for m, w in zip(mu, omega)) / 2
            decay = [mp.exp(-T * (lam[i] - kappa**2 * e_disc)) for i in range(ops.dim)]
            semigroup = Q * mp.diag(decay) * Q.T
            lam_f, Q_f = mp.eigsy(exact(fiber_hamiltonian(ops, 1.0, 0.0, 0.0)))
            g = Q_f[:, min(range(ops.dim), key=lambda i: lam_f[i])]
            m_eff = 1 + mp.fsum(mp.mpf(W) / mp.mpf(w)**2 for w, W, _ in TWO_MODE)
            free = [mp.exp(-T * (p - mp.mpf(float(q)))**2 / (2 * m_eff))
                    for q in ops.Pf.diagonal()]
            X = semigroup - g * (mp.matrix([g[j] * free[j] for j in range(ops.dim)])).T
            oracle = mp.sqrt(max(mp.eigsy(X.T * X, eigvals_only=True)))
            got = semigroup_wcl_residual(ops, kappa, p, T)
            assert abs(got - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_no_dense_cliff(self, two_mode_ops, kappa):
        # dim 4186, past the old 2000-state dense limit; N_tot = 61 is already
        # truncation-converged at T = 1, so both sizes give the same residual
        big = build_operators(build_basis(TWO_MODE, 90))
        assert big.dim == 4186
        res_big = semigroup_wcl_residual(big, kappa, 0.2, 1.0)
        res_61 = semigroup_wcl_residual(two_mode_ops, kappa, 0.2, 1.0)
        assert res_big == pytest.approx(res_61, rel=1e-11)

    @pytest.mark.parametrize("T", [1e4, 4e4, 1e5])
    def test_long_horizon_rank_one_limit(self, T):
        # one mode (1, 1, 0.6) at p = 0.2: the free term is at least e^{-T/100} and
        # the semigroup term below e^{-T/50}, so at these T, X = -f g^T to all
        # digits and ||X|| = ||f||.  Past e^-300 svds runs on a rescaled X (the
        # unscaled X^T X underflows to the zero operator); e^-1000 at T = 1e5 is 0
        ops = build_operators(build_basis([(1.0, 1.0, 0.6)], 8))
        g = ops.ground_vector
        scaled = np.exp(T / 100 - T * (0.2 - ops.Pf.diagonal()) ** 2 / (2.0 * ops.m_eff()))
        expected = math.exp(-T / 100) * np.linalg.norm(g * scaled)
        got = semigroup_wcl_residual(ops, 1.0, 0.2, T)
        assert got == pytest.approx(expected, rel=1e-9, abs=0)
        if T == 1e4:
            assert got == pytest.approx(3.692390045532778e-44, rel=1e-12)   # as before

    @pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_nonnegative(self, T):
        ops = build_operators(build_basis(TWO_MODE, 6))
        with pytest.raises(ValueError, match="T >= 0"):
            semigroup_wcl_residual(ops, 1.0, 0.2, T)

    def test_overflow_names_stage(self, monkeypatch):
        # kappa^2 E_disc far above the ground energy: exp(T (shift - E_0)) > max float
        monkeypatch.setattr(fockdesk, "bogoliubov_energy", lambda modes: 1e3)
        ops = build_operators(build_basis(TWO_MODE, 6))
        with pytest.raises(NumericalError, match="semigroup"):
            semigroup_wcl_residual(ops, 1.0, 0.2, 1.0)


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
            e0 = ground_state(fiber_hamiltonian(ops, 1.0, 0.0, 1.0))[0]
            devs.append(abs(e0 - ref))
        assert devs[0] > devs[1] >= devs[2] >= devs[3]
