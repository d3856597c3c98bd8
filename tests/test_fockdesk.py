import itertools
import math
import random
import re
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from pfwcl import fockdesk
from pfwcl.energy import ground_energy as continuum_ground_energy
from pfwcl.energy import log_spectral_energy
from pfwcl.errors import BasisSizeError, NumericalError
from pfwcl.fockdesk import (bogoliubov_energy, build_basis, fiber_hamiltonian,
                            ground_state, semigroup_wcl_residual, wcl_scan)
from pfwcl.formfactor import PointMasses, RadialMeasure
from pfwcl.wienerhopf import log_det, mass_functional, vacuum_rate

TWO_MODE = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]


def dense(operator):
    """The matrix of a gather table or fiber Hamiltonian, column by column."""
    return np.column_stack([operator @ e for e in np.eye(operator.shape[0])])


def annihilator(basis, j):
    """a_j in the truncated basis, a_j |n> = sqrt(n_j) |n - e_j>: row 2j + 1 of
    the ladder table."""
    index, factor = basis.ladders
    return fockdesk.GatherOperator(index[2 * j + 1:2 * j + 2], factor[2 * j + 1:2 * j + 2])


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
    """H_f and P_f diagonals, and dense A, from per-state annihilator loops."""
    states, index = _loop_states(len(modes), n_tot)
    dim = len(states)
    A = np.zeros((dim, dim))
    for j, (omega, weight, _) in enumerate(modes):
        g = math.sqrt(weight / omega)
        for pos, state in enumerate(states):
            if state[j] == 0:
                continue
            lowered = state.copy()
            lowered[j] -= 1
            row, entry = index[tuple(lowered)], math.sqrt(state[j])   # a[row, pos]
            A[row, pos] = A[pos, row] = g / math.sqrt(2.0) * entry
    return {"Hf": np.array([sum(n * m[0] for n, m in zip(st, modes)) for st in states]),
            "Pf": np.array([sum(n * m[2] for n, m in zip(st, modes)) for st in states]),
            "A": A}


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

    @pytest.mark.parametrize("omega, weight", [(1e-200, 1.0), (1e-160, 1.0), (1e-200, 0.0),
                                               (1e200, 1.0)])
    def test_mode_refuses_non_finite_mass_share(self, omega, weight):
        # omega^2 underflows (or overflows), where m_eff would divide by zero:
        # the driver's rule, naming the argument
        with pytest.raises(ValueError, match=r"^modes: a mode needs omega > 0, W >= 0 and "
                                             r"W/omega\^2 finite"):
            build_basis([(omega, weight)], 2)

    @pytest.mark.parametrize("modes,n_tot", [
        ([(1.0, 3.0, 0.0)], 20),
        ([(1.0, 1.0, 0.1), (1.5, 0.5, 0.2), (2.0, 2.0, -0.3)], 12),
        ([(1.0, 1.0, 0.1)] * 6, 4),
        (TWO_MODE, 61),
        (TWO_MODE, 90),
        ([(1.0, 1.0, 0.1)] * 7, 10)])     # 19,448 states
    def test_states_match_loop_order(self, modes, n_tot):
        states, _ = _loop_states(len(modes), n_tot)
        basis = build_basis(modes, n_tot)
        assert basis.states.dtype == states.dtype
        assert np.array_equal(basis.states, states)
        assert np.array_equal(basis.rank(basis.states), np.arange(basis.dim))

    @pytest.mark.parametrize("n_tot", [8, 30, 61])
    def test_operators_byte_equal_to_loop_construction(self, n_tot):
        basis = build_basis(TWO_MODE, n_tot)
        reference = _loop_operators(TWO_MODE, n_tot)
        for name in ("Hf", "Pf", "A"):
            got, want = getattr(basis, name), reference[name]
            got = dense(got) if name == "A" else got
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # the gather table stores the nonzeros of A, as a sparse matrix would
        assert np.count_nonzero(basis.A.weights) == np.count_nonzero(reference["A"])

    def test_ccr_on_interior(self):
        basis = build_basis([(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)], 6)
        interior = basis.states.sum(axis=1) <= basis.n_tot - 2
        eye = np.eye(basis.dim)
        for j in range(2):
            a = dense(annihilator(basis, j))
            comm = a @ a.T - a.T @ a
            sub = comm[np.ix_(interior, interior)] - eye[np.ix_(interior, interior)]
            assert np.max(np.abs(sub)) < 1e-13
        a0, a1 = dense(annihilator(basis, 0)), dense(annihilator(basis, 1))
        cross = a0 @ a1.T - a1.T @ a0
        assert np.max(np.abs(cross[np.ix_(interior, interior)])) == 0.0


class TestOperators:
    def test_hermitian_and_diagonal_structure(self):
        basis = build_basis([(1.0, 1.0, 0.5), (2.0, 2.0, -0.5)], 5)
        A = dense(basis.A)
        assert np.array_equal(A, A.T)
        assert np.count_nonzero(np.diag(A)) == 0
        # H_f and P_f are stored as their diagonals
        occ = basis.states
        assert basis.Hf.shape == basis.Pf.shape == (basis.dim,)
        assert np.allclose(basis.Hf, occ @ np.array([1.0, 2.0]))
        assert np.allclose(basis.Pf, occ @ np.array([0.5, -0.5]))

    def test_gather_sums_rows_in_order(self, two_mode_basis):
        # A v adds its R gathered terms in row order, the order the fock output
        # bytes rest on; the loop construction above applies A to unit vectors
        # only, where every order gives the same bytes
        A = two_mode_basis.A
        assert two_mode_basis.dim == 1953
        v = np.random.default_rng(7).standard_normal(two_mode_basis.dim)
        expected = (np.take(v, A.index) * A.weights).sum(axis=0)
        assert (A @ v).tobytes() == expected.tobytes()

    def test_fiber_hamiltonian_symmetric(self):
        basis = build_basis([(1.0, 3.0, 0.2)], 8)
        H = dense(fiber_hamiltonian(basis, 2.0, 0.3, 0.7))
        assert np.allclose(H, H.T, atol=1e-13)

    def test_kappa_zero_is_diagonal_kinetic(self):
        basis = build_basis([(1.0, 3.0, 0.4), (2.0, 1.0, -0.3)], 6)
        p, eps = 0.7, 1.0
        H = dense(fiber_hamiltonian(basis, 0.0, p, eps))
        occ = basis.states
        q = occ @ np.array([0.4, -0.3])
        expected = 0.5 * (p - eps * q) ** 2
        assert np.allclose(H, np.diag(expected), atol=1e-14)
        assert ground_state(fiber_hamiltonian(basis, 0.0, p, eps))[0] == pytest.approx(
            float(expected.min()), abs=1e-12)

    def test_eps_irrelevant_when_momenta_vanish(self):
        basis = build_basis([(1.0, 3.0, 0.0), (2.0, 1.0, 0.0)], 6)
        h0 = dense(fiber_hamiltonian(basis, 1.5, 0.4, 0.0))
        h1 = dense(fiber_hamiltonian(basis, 1.5, 0.4, 1.0))
        assert np.array_equal(h0, h1)

    def test_eps_out_of_range(self):
        basis = build_basis([(1.0, 1.0, 0.0)], 4)
        with pytest.raises(ValueError):
            fiber_hamiltonian(basis, 1.0, 0.0, 1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa, p", [(1.0, 1e200), (1e154, 0.0)])
    def test_overflowing_hamiltonian_refused(self, kappa, p):
        # (1/2) p^2 or kappa^2 H_f past the double range: a ValueError naming
        # both, where the eigensolver warned of overflow and then failed
        basis = build_basis([(1.0, 1.0, 0.5)], 2)
        with pytest.raises(ValueError, match=re.escape(f"kappa = {kappa}, p = {p}")):
            fiber_hamiltonian(basis, kappa, p, 1.0)

    @pytest.mark.parametrize("modes, n_tot", [
        ([(1.0, 1.0, 0.6), (2.0, 0.0, -0.4)], 20),              # dim 231, a W = 0 mode
        ([(1.0, 3.0, 0.5), (1.7, 0.0, 0.2), (2.5, 0.8, -0.7)], 6),  # dim 84
    ])
    @pytest.mark.parametrize("kappa", [0.0, 0.7, 3.0])
    @pytest.mark.parametrize("p", [-1.5, 0.0, 0.4])
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_row_sum_bound_matches_dense_oracle(self, modes, n_tot, kappa, p, eps):
        # the bound reads A itself, kappa |A| = |kappa A| since kappa >= 0 and
        # A >= 0 entrywise: it is the largest row sum of
        # (1/2)|B|(|B| 1) + kappa^2 H_f with B built densely from unit vectors,
        # and it bounds every eigenvalue of H
        basis = build_basis(modes, n_tot)
        assert basis.dim <= 231
        H = fiber_hamiltonian(basis, kappa, p, eps)
        B = np.diag(p - eps * basis.Pf) - kappa * dense(basis.A)
        absB = np.abs(B)
        rows = 0.5 * (absB @ (absB @ np.ones(basis.dim))) + kappa**2 * basis.Hf
        oracle = float(np.max(rows))
        bound = H.row_sum_bound
        assert abs(bound - oracle) <= 4 * np.spacing(oracle)
        assert bound >= np.max(np.abs(np.linalg.eigvalsh(dense(H))))


class TestGroundEnergy:
    def test_single_mode_oscillator(self):
        basis = build_basis([(1.0, 3.0, 0.0)], 60)
        e = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]
        assert e == pytest.approx(0.5, abs=1e-6)

    def test_dense_matches_bogoliubov(self):
        # dim 1326
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        basis = build_basis(modes, 50)
        lam = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]
        assert lam == pytest.approx(bogoliubov_energy(modes), abs=1e-6)

    def test_dense_branch_matches_bogoliubov(self):
        modes = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]
        basis = build_basis(modes, 16)     # dim 153
        lam = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]
        assert lam == pytest.approx(bogoliubov_energy(modes), abs=1e-6)


class TestGroundState:
    @pytest.mark.parametrize("modes, n_tot", [
        pytest.param(TWO_MODE, n_tot, id=str(n_tot))
        for n_tot in (1, 2, 16, 24, 30, 44)                  # dim 3, 6, 153, 325 .. 1035
    ] + [
        pytest.param(TWO_MODE + [(3.0, 0.5, 0.2)], 8, id="three_modes_8"),        # dim 165
        pytest.param([(1.0, 1.0, 0.6), (2.0, 0.0, -0.6)], 12, id="zero_weight_12"),  # dim 91
    ])
    def test_matches_dense_eigh(self, modes, n_tot):
        basis = build_basis(modes, n_tot)
        for kappa, p in ((0.0, 0.3), (1.0, 0.0), (4.0, 0.2)):
            H = fiber_hamiltonian(basis, kappa, p, 1.0)
            lam, vec = ground_state(H)
            exact = np.linalg.eigvalsh(dense(H))[0]
            assert abs(lam - exact) <= 1e-11 * max(1.0, abs(exact))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(H @ vec - lam * vec) <= 1e-9 * max(1.0, abs(lam))
            assert ground_state(H)[0] == lam

    def test_ground_vector_computed_once(self, monkeypatch):
        basis = build_basis(TWO_MODE, 8)
        projector = fiber_hamiltonian(basis, 1.0, 0.0, 0.0)
        solved = []
        real = fockdesk.ground_state

        def counted(matrix, *args):
            same = (matrix.kappa, matrix.p, matrix.eps) == (
                projector.kappa, projector.p, projector.eps)
            solved.append("P_g" if same else "lambda_0")
            return real(matrix, *args)

        monkeypatch.setattr(fockdesk, "ground_state", counted)
        for kappa in (1.0, 2.0):
            semigroup_wcl_residual(basis, kappa, 0.2, 1.0)
        # the projector's matrix is solved once; each call solves its own H
        # for the bottom of the Chebyshev interval
        assert solved == ["lambda_0", "P_g", "lambda_0"]
        assert basis.ground_vector is basis.ground_vector


    def test_far_from_bogoliubov_vector(self):
        # two identical modes at kappa = 0.5, p = 6: the ground state is nearly
        # orthogonal to the Bogoliubov vector basis.ground_vector (overlap 1.8e-6).
        # This case is why the solver starts from the seeded random vector and
        # not warm from ground_vector.
        basis = build_basis([(1.0, 1.0, 0.6)] * 2, 30)
        assert basis.dim == 496
        H = fiber_hamiltonian(basis, 0.5, 6.0, 1.0)
        vals, vecs = np.linalg.eigh(dense(H))
        assert abs(vecs[:, 0] @ basis.ground_vector) < 1e-5
        lam, vec = ground_state(H)
        assert abs(lam - vals[0]) <= 1e-11 * max(1.0, abs(vals[0]))
        assert abs(vec @ vecs[:, 0]) == pytest.approx(1.0, abs=1e-9)


    def test_multiple_of_identity_above_dense_limit(self):
        # dim 231, kappa = 0, no mode momenta: H = p^2/2 times 1, so the start
        # vector is an eigenvector and the solver stops at its first test
        basis = build_basis([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 20)
        for p in (0.0, 0.3):
            lam, vec = ground_state(fiber_hamiltonian(basis, 0.0, p, 0.0))
            assert lam == pytest.approx(p * p / 2, abs=1e-15)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_matches_dense(self):
        # the closed form sum_r weights[r]^2 for (A^2)_ii, on both fibers
        basis = build_basis(TWO_MODE, 12)
        for kappa, p, eps in ((0.0, 0.3, 1.0), (1.0, 0.0, 0.0), (2.5, 0.7, 1.0)):
            H = fiber_hamiltonian(basis, kappa, p, eps)
            np.testing.assert_allclose(H.diagonal(), np.diag(dense(H)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("p_over_kappa", [0.0, 0.2])
    def test_dipole_scaling_oracle(self, two_mode_basis, kappa, p_over_kappa):
        # (1/2)(p - kappa A)^2 + kappa^2 H_f = kappa^2 [(1/2)(p/kappa - A)^2 + H_f]
        # in the truncated space, so E_kappa(p, 0) = kappa^2 E_1(p/kappa, 0)
        # exactly; dim 1953
        lam = ground_state(fiber_hamiltonian(two_mode_basis, kappa, p_over_kappa * kappa, 0.0))[0]
        unit = ground_state(fiber_hamiltonian(two_mode_basis, 1.0, p_over_kappa, 0.0))[0]
        assert lam == pytest.approx(kappa**2 * unit, rel=1e-13, abs=0)

    def test_weak_regime_sweep(self, monkeypatch):
        # two identical modes at dim 496: the bottom of the spectrum is
        # clustered (1.744, 1.801, 1.861, ... at kappa = 0.5, p = 6) while the
        # diagonal is at least 3.68 there, the weakest case for the Jacobi
        # preconditioner (645 H applications, against 291 for plain Lanczos)
        basis = build_basis([(1.0, 1.0, 0.6)] * 2, 30)
        assert basis.dim == 496
        applied = []
        real = fockdesk.FiberHamiltonian.__matmul__

        def counted(self, v):
            applied.append(1)
            return real(self, v)

        monkeypatch.setattr(fockdesk.FiberHamiltonian, "__matmul__", counted)
        for kappa, p, eps in itertools.product((0.25, 0.5, 4.0), (0.0, 3.0, 6.0), (0.0, 1.0)):
            H = fiber_hamiltonian(basis, kappa, p, eps)
            applied.clear()
            lam = ground_state(H)[0]
            assert len(applied) <= fockdesk.EIGEN_MAX_STEPS // 2
            matrix = np.column_stack([real(H, e) for e in np.eye(basis.dim)])
            exact = np.linalg.eigvalsh(matrix)[0]
            assert abs(lam - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_start_vector_pinned_and_read_only(self):
        # the standard library's sequence, the same on every Python version;
        # one shared array per dimension, which no solve may write into
        v = fockdesk._start_vector(50)
        draw = random.Random(0).random
        assert v.tolist() == [draw() - 0.5 for _ in range(50)]
        assert v[0] == 0.8444218515250481 - 0.5
        assert fockdesk._start_vector(50) is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0

    def test_zero_on_the_diagonal(self):
        # kappa = 0, p = q_0: H = (1/2) q_0^2 (1 - n_0 + n_1)^2 is diagonal with
        # exact zeros where n_0 - n_1 = 1; the preconditioner uses 1 there
        basis = build_basis(TWO_MODE, 20)
        H = fiber_hamiltonian(basis, 0.0, 0.6, 1.0)
        assert np.count_nonzero(H.diagonal() == 0.0) > 0
        lam, vec = ground_state(H)
        assert 0.0 <= lam <= 1e-12
        assert np.linalg.norm(H @ vec) <= 1e-9

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_non_finite_product_names_stage(self, monkeypatch, k):
        # an operator that turns NaN after k products: the projected matrix of
        # that step holds it, and the solve stops there, naming its stage
        real, products = fockdesk.FiberHamiltonian.__matmul__, []

        def spoiled(H, v):
            products.append(None)
            return real(H, v) * (math.nan if len(products) > k else 1.0)

        monkeypatch.setattr(fockdesk.FiberHamiltonian, "__matmul__", spoiled)
        basis = build_basis(TWO_MODE, 20)
        with pytest.raises(NumericalError, match=r"eigensolver failed at step \d+: .*non-finite"):
            ground_state(fiber_hamiltonian(basis, 1.0, 0.2, 1.0))
        assert len(products) <= k + 1


class TestWorkCounts:
    """Regression on work, not time, on the dim-1953 two-mode model: the
    counts are deterministic, so two runs must agree exactly."""

    @staticmethod
    def _count(monkeypatch, dim):
        """Count H applications per iterative solve, Chebyshev series terms,
        and every dim x dim dense eigh or SVD fockdesk makes."""
        counts = {"H": 0, "solves": [], "terms": [], "dense": 0}

        def square(a, *args, **kwargs):
            return np.shape(a) == (dim, dim)

        def matrix_2norm(a, ord=None, *args, **kwargs):
            return np.ndim(a) == 2 and ord == 2    # a full SVD

        def spy(real, key, counts_it):
            def wrapper(*args, **kwargs):
                if counts_it(*args, **kwargs):
                    if key == "terms":
                        counts["terms"].append(len(args[1]))
                    else:
                        counts[key] += 1
                return real(*args, **kwargs)
            return wrapper

        def solve(real):
            def wrapper(*args, **kwargs):
                before = counts["H"]
                out = real(*args, **kwargs)
                counts["solves"].append(counts["H"] - before)
                return out
            return wrapper

        always = lambda *args, **kwargs: True    # noqa: E731
        for owner, name, key, counts_it in (
                (fockdesk.FiberHamiltonian, "__matmul__", "H", always),
                (fockdesk, "_chebyshev_sum", "terms", always),
                (np.linalg, "eigh", "dense", square),
                (np.linalg, "eigvalsh", "dense", square),
                (np.linalg, "svd", "dense", square),
                (np.linalg, "norm", "dense", matrix_2norm)):
            monkeypatch.setattr(owner, name, spy(getattr(owner, name), key, counts_it))
        monkeypatch.setattr(fockdesk, "_lobpcg", solve(fockdesk._lobpcg))
        return counts

    def test_scan_is_all_iterative(self, two_mode_basis, monkeypatch):
        runs = []
        for _ in range(2):
            counts = self._count(monkeypatch, two_mode_basis.dim)
            wcl_scan(two_mode_basis, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2], 1.0)
            monkeypatch.undo()
            runs.append(counts)
        assert runs[0] == runs[1]
        counts = runs[0]
        assert len(counts["solves"]) == 8 and counts["dense"] == 0
        # 32-43 H applications per preconditioned solve on x86-64 (plain
        # Lanczos took 147-302), and none outside the solves
        assert max(counts["solves"]) <= 60
        assert sum(counts["solves"]) == counts["H"]

    def test_semigroup_series_terms_no_dense(self, two_mode_basis, monkeypatch):
        # one solve for the bottom of the Chebyshev interval, then the norm:
        # E f once (degree d), one E^2 series (degree about sqrt(2) d) per
        # H application of the unpreconditioned solve on -X X^T, and E u once
        # for ||X^T u||; no dim x dim eigh or SVD
        two_mode_basis.ground_vector   # the cached kappa-independent projector
        runs = []
        for _ in range(2):
            counts = self._count(monkeypatch, two_mode_basis.dim)
            semigroup_wcl_residual(two_mode_basis, 1.0, 0.2, 1.0)
            monkeypatch.undo()
            runs.append(counts)
        assert runs[0] == runs[1]
        counts = runs[0]
        assert len(counts["solves"]) == 2 and counts["dense"] == 0
        first, *squares, last = counts["terms"]
        assert last == first and set(squares) == {squares[0]} and len(squares) <= 10
        assert 1.3 * first < squares[0] < 1.5 * first
        # svds on X applied the degree-d series 43 times per call
        assert sum(counts["terms"]) < 0.35 * 43 * first

    @pytest.mark.parametrize("T, kappas, p_list, bounds, hamiltonians", [
        (None, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2], 8, 8),
        (1.0, [1.0, 2.0], [0.2], 7, 5),
    ])
    def test_row_sum_bound_once_per_hamiltonian(self, monkeypatch, T, kappas, p_list,
                                                bounds, hamiltonians):
        # the overflow check and the solve read one cached bound per Hamiltonian,
        # where each used to compute its own; with T the semigroup builds its
        # own H(kappa, p, 1) and the Bogoliubov vector's solve adds H(1, 0, 0)
        real = fockdesk.FiberHamiltonian.row_sum_bound.func
        computed = []

        def counted(H):
            computed.append((H.kappa, H.p, H.eps))
            return real(H)

        spy = cached_property(counted)
        spy.__set_name__(fockdesk.FiberHamiltonian, "row_sum_bound")
        monkeypatch.setattr(fockdesk.FiberHamiltonian, "row_sum_bound", spy)
        wcl_scan(build_basis(TWO_MODE, 10), kappas, p_list, 1.0, T=T)
        assert len(computed) == bounds and len(set(computed)) == hamiltonians


class TestMemory:
    """Regression on the traced peak of ``build_basis`` + ``wcl_scan``, in
    dim-vectors of 8 dim bytes: the basis keeps A as its one operator table and
    every Hamiltonian applies kappa to it as a scalar."""

    @staticmethod
    def _peak_vectors(n_tot, kappa_list, p_list, T=None):
        fockdesk._start_vector.cache_clear()     # count the start vector too
        tracemalloc.start()
        try:
            basis = build_basis(TWO_MODE, n_tot)
            wcl_scan(basis, kappa_list, p_list, 1.0, T=T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * basis.dim)

    def test_lanczos_scan(self):
        # the bench's dim-4186 model: 41.6 vectors with a kappa A copy per
        # Hamiltonian and the ladder factors cached beside A; 31.6 without
        assert self._peak_vectors(90, [1.0, 2.0, 4.0, 8.0], [0.0, 0.2]) <= 34

    def test_semigroup_scan(self):
        # dim 1953 at T = 1: the semigroup's replace(H, scale, shift) shares A
        # too (47.3 vectors with the copies, 39.2 without), and the Chebyshev
        # sum adds each term as a transient, not into a held scratch (38.2)
        assert self._peak_vectors(61, [1.0, 2.0], [0.2], T=1.0) <= 38.7


class TestBesselCoefficients:
    """The Miller-recurrence series coefficients of the semigroup, returned as
    (2 - delta_k0) e^-z I_k(z)."""

    Z = [1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5]

    @staticmethod
    def _terms(z):
        c = fockdesk._bessel_coefficients(z)
        return np.concatenate([c[:1], 0.5 * c[1:]])

    @staticmethod
    def _orders(n):
        """Every order of a short vector, else 40 spread ones with both ends."""
        return range(n) if n <= 60 else sorted(set(np.linspace(0, n - 1, 40).astype(int)))

    @staticmethod
    def _ive(mp, k, z):
        """e^-z I_k(z).  At z = 1e5 mpmath's series takes seconds per order, so
        there it is (1/pi) int_0^pi e^{z (cos t - 1)} cos(k t) dt, whose
        integrand is below e^-80 past t = 0.04."""
        if z < 1e5:
            return mp.besseli(k, z) * mp.exp(-z)
        nodes = [mp.mpf(i) / 1000 for i in range(41)]
        return mp.quad(lambda t: mp.exp(z * (mp.cos(t) - 1)) * mp.cos(k * t), nodes) / mp.pi

    @staticmethod
    def _sum_tolerance(coeffs):
        """Rounding (each coefficient is rounded once) plus the orders cut past
        the tail, which fall at least geometrically at the last kept ratio q."""
        q = abs(coeffs[-1] / coeffs[-2])
        return 2.0 * np.finfo(float).eps * math.fsum(np.abs(coeffs)) + abs(coeffs[-1]) * q / (1 - q)

    @pytest.mark.parametrize("z", Z)
    def test_modified_matches_mpmath(self, z):
        mp = pytest.importorskip("mpmath").mp
        c = self._terms(z)
        assert c.min() > fockdesk.BESSEL_TAIL
        orders = self._orders(len(c))
        orders = orders[::5] + [orders[-1]] if z >= 1e5 else orders
        with mp.workdps(40):
            for k in orders:
                exact = float(self._ive(mp, k, mp.mpf(z)))
                assert abs(c[k] - exact) <= 1e-14 * exact, k
        # e^-z (I_0 + 2 sum I_k) = 1 over the kept orders
        coeffs = fockdesk._bessel_coefficients(z)
        assert abs(math.fsum(coeffs) - 1.0) <= self._sum_tolerance(coeffs)

    @pytest.mark.parametrize("z", Z + [1e6], ids=[f"{z}-I" for z in Z + [1e6]])  # I: e^-z I_k(z)
    def test_matches_scipy(self, z):
        # scipy is a test-only cross-check; its own error grows with z
        special = pytest.importorskip("scipy.special")
        c = self._terms(z)
        k = np.arange(len(c) + 40)
        reference = special.ive(k, z)
        assert np.max(np.abs(c - reference[:len(c)])) <= 1e-10 * np.max(np.abs(c))
        # every order past the kept ones is below the tail
        assert np.all(np.abs(reference[len(c):]) < fockdesk.BESSEL_TAIL * 1.01)

    def test_zero_argument(self):
        assert fockdesk._bessel_coefficients(0.0).tolist() == [1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [1e-300, 5e-324])
    def test_tiny_argument(self, z):
        # 2k / z overflows and the ratios underflow to 0: I_0 alone
        assert fockdesk._bessel_coefficients(z).tolist() == [1.0]

    @pytest.mark.parametrize("z, degree", [(515.2, 192), (2353.2, 403), (1e4, 821),
                                           (1e6, 7915)])
    def test_degree(self, z, degree):
        assert len(fockdesk._bessel_coefficients(z)) == degree

    def test_memory_at_a_long_horizon(self):
        # the ratios and their products share one array of N + 1 doubles
        tracemalloc.start()
        try:
            fockdesk._bessel_coefficients(1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    @staticmethod
    def _debye_start(z):
        """The first order past which the Debye exponent of e^-z I_k(z) is below
        2 log BESSEL_TAIL, by doubling and bisection: the oracle of the closed
        form, which bounds that exponent from above."""
        def exponent(k):
            return math.hypot(k, z) - z - k * math.asinh(k / z)

        target = 2.0 * math.log(fockdesk.BESSEL_TAIL)
        lo, hi = 0.0, 1.0
        while exponent(hi) > target:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1.0:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exponent(mid) > target else (lo, mid)
        return math.ceil(hi) + 1

    def test_closed_form_start_is_past_the_debye_root(self):
        for k in range(-800, 1001):
            z = 10.0 ** (k / 100)
            assert fockdesk._miller_start(z) >= self._debye_start(z), z

    # the series of the bench's fock --T jobs at seeds 1-3 take z = 515.2 .. 2353.2
    BENCH_Z = [515.2, 631.5, 957.8, 1134.7, 1263.0, 1497.3, 2269.4, 2353.2]

    @pytest.mark.parametrize("z", Z + BENCH_Z)
    def test_start_leaves_coefficients_bitwise_equal(self, monkeypatch, z):
        # a later start only adds recurrence steps whose error has died out
        # long before order d
        closed_form = fockdesk._bessel_coefficients(z)
        monkeypatch.setattr(fockdesk, "_miller_start", self._debye_start)
        debye = fockdesk._bessel_coefficients(z)
        assert closed_form.tobytes() == debye.tobytes()


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
        # Fock ground energy ~ Bogoliubov = continuum ground energy
        #   = log-spectral / 2 ~ (1/2T) log det
        atoms = [(1.0, 1.0), (2.0, 2.0)]
        modes = [(w, W, 0.0) for w, W in atoms]
        bogo = bogoliubov_energy(atoms)
        basis = build_basis(modes, 40)
        lam = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]
        assert lam == pytest.approx(bogo, abs=1e-6)
        measure = RadialMeasure(3, PointMasses(atoms))
        cont = continuum_ground_energy(measure).calE
        assert cont == pytest.approx(bogo, rel=1e-9)
        assert 0.5 * log_spectral_energy(measure, 1.0) == pytest.approx(bogo, rel=1e-9)
        rate = log_det(measure, 1.0, 40.0) / 80.0
        assert rate == pytest.approx(bogo, rel=0.02)


class TestDipoleVacuumAmplitude:
    """log <Omega, exp(-T H_kappa(p, 0)) Omega> on the Fock desk against the
    Wiener-Hopf pipeline on the same atoms, -T vacuum_rate.  The dressing
    U_p turns the dipole fiber into p^2/(2 m_eff) + kappa^2 H_0, so the vacuum
    amplitude is exact on both sides: the whole semigroup, mass term included,
    against the determinant and the mass functional."""

    POINTS = [(1.0, 0.0, 1.0), (1.0, 0.5, 1.0), (2.0, 0.3, 2.0), (0.5, 1.0, 5.0),
              (1.0, 0.2, 10.0), (4.0, 0.2, 1.0)]

    @staticmethod
    def _fock_log_amplitude(basis, kappa, p, T):
        H = fiber_hamiltonian(basis, kappa, p, 0.0)
        exponent, series = fockdesk._semigroup_action(H, T, 0.0, ground_state(H)[0])
        vacuum = np.zeros(basis.dim)
        vacuum[basis.rank(np.zeros(len(basis.modes), dtype=np.int64))] = 1.0
        return math.log(series(1, exponent)(vacuum)[0]) + exponent

    @pytest.mark.parametrize("n_tot, dim", [(20, 231), (40, 861), (61, 1953)])
    @pytest.mark.parametrize("kappa, p, T", POINTS)
    def test_matches_wiener_hopf(self, n_tot, dim, kappa, p, T):
        basis = build_basis(TWO_MODE, n_tot)
        assert basis.dim == dim
        measure = RadialMeasure(3, PointMasses([(w, W) for w, W, _ in TWO_MODE]))
        exact = -T * vacuum_rate(measure, p, log_det(measure, kappa, T) / T,
                                 mass_functional(measure, kappa, T))
        got = self._fock_log_amplitude(basis, kappa, p, T)
        assert abs(got - exact) <= 1e-12 * abs(exact)


class TestScan:
    def test_zero_momentum_row(self):
        basis = build_basis([(1.0, 3.0, 0.3)], 12)
        rows = wcl_scan(basis, [2.0], [0.0], 1.0)
        assert rows[0]["gap"] == 0.0
        assert rows[0]["gap_dev"] == 0.0

    def test_dipole_rows_kappa_independent(self):
        modes = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)]
        basis = build_basis(modes, 30)
        rows = wcl_scan(basis, [1.0, 2.0, 4.0], [0.2], 0.0)
        gaps = [r["gap"] for r in rows]
        assert max(gaps) - min(gaps) <= 1e-8
        # dipole structure: gap = p^2/(2 m_eff_disc) up to truncation error
        assert gaps[0] == pytest.approx(0.2**2 / (2 * 2.5), abs=1e-7)

    def test_empty_lists_rejected(self):
        basis = build_basis([(1.0, 1.0, 0.0)], 4)
        with pytest.raises(ValueError):
            wcl_scan(basis, [], [0.1], 0.0)

    def test_top_shell_weight(self):
        # the ground vector's weight on sum n = N_tot, from the dense eigenvector
        basis = build_basis(TWO_MODE, 10)
        rows = wcl_scan(basis, [1.0, 4.0], [0.0, 0.2], 1.0)
        top = basis.states.sum(axis=1) == 10
        for row in rows:
            H = dense(fiber_hamiltonian(basis, row["kappa"], row["p"], 1.0))
            vec = np.linalg.eigh(H)[1][:, 0]
            assert row["top_shell"] == pytest.approx(np.sum(vec[top] ** 2), rel=1e-8)
        # a truncation indicator: it falls as the truncation grows
        finer = wcl_scan(build_basis(TWO_MODE, 20), [1.0, 4.0],
                         [0.0, 0.2], 1.0)
        for coarse, fine in zip(rows, finer):
            assert 0.0 < fine["top_shell"] < 1e-3 * coarse["top_shell"] < 1e-6


class TestDiamagnetic:
    @pytest.mark.parametrize("n_tot, kappa, p_list", [
        (20, 2.0, [0.0]), (40, 2.0, [0.3]), (10, 0.0, [0.4, 1.2]),
    ], ids=["zero_momentum", "single_mode", "kappa_zero"])
    def test_scan_rows(self, n_tot, kappa, p_list):
        # E_kappa(0) <= E_kappa(p) on the wcl_scan rows, up to truncation and
        # eigensolver slack; at p = 0 the row reuses E_0, so the gap is exactly 0
        basis = build_basis([(1.0, 3.0, 0.6)], n_tot)
        for row in wcl_scan(basis, [kappa], p_list, 1.0):
            if row["p"] == 0.0:
                assert row["gap"] == 0.0
            else:
                assert row["E_0"] <= row["E_p"] + 1e-6


class TestSemigroup:
    def test_time_zero_projector_defect(self):
        basis = build_basis([(1.0, 1.0, 0.3), (2.0, 2.0, -0.3)], 8)
        res = semigroup_wcl_residual(basis, 1.0, 0.0, 0.0)
        assert res == pytest.approx(1.0, abs=1e-10)  # ||I - P_g||

    def test_null_coupling_reported(self):
        basis = build_basis([(1.0, 0.0, 0.3), (2.0, 0.0, -0.3)], 6)
        res = semigroup_wcl_residual(basis, 1.0, 0.2, 1.0)
        assert 0.0 <= res <= 1.0

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_uncoupled_closed_form(self, kappa):
        # no coupling, no mode momenta: H = p^2/2 + kappa^2 H_f is diagonal
        # (at kappa = 0 a multiple of 1, a zero-width interval), E_disc = 0,
        # m_eff = 1 and P_g is the vacuum, so the residual is the largest
        # non-vacuum entry exp(-T (p^2/2 + kappa^2 omega_min))
        basis = build_basis([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 4)
        p, T = 0.5, 2.0
        assert semigroup_wcl_residual(basis, kappa, p, T) == pytest.approx(
            math.exp(-T * (p * p / 2 + kappa**2)), rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_uncoupled_closed_form_above_dense_limit(self, kappa):
        # the same at dim 231: at kappa = 0 the Chebyshev interval has zero
        # width, and X X^T = exp(-T p^2) (1 - P_vac)
        basis = build_basis([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], 20)
        p, T = 0.5, 2.0
        assert semigroup_wcl_residual(basis, kappa, p, T) == pytest.approx(
            math.exp(-T * (p * p / 2 + kappa**2)), rel=1e-12)

    @pytest.mark.parametrize("kappa, T, rel", [
        pytest.param(1.0, 1.0, 1e-12, id="1.0"),
        pytest.param(4.0, 1.0, 1e-12, id="4.0"),
        # the norm is taken on the rescaled X here too, where ||X|| is about
        # 1.5; the series rounds at about T b eps_mach, so 1e-10
        pytest.param(1.0, 100.0, 1e-10, id="1.0-T100"),
        pytest.param(4.0, 100.0, 1e-10, id="4.0-T100"),
    ])
    def test_matches_dense_reference(self, kappa, T, rel):
        # the full-decomposition formula: both eigh's, dense P_g, full SVD
        basis = build_basis(TWO_MODE, 20)
        p = 0.2
        lam, Q = np.linalg.eigh(dense(fiber_hamiltonian(basis, kappa, p, 1.0)))
        shift = kappa**2 * bogoliubov_energy(TWO_MODE)
        left = (Q * np.exp(np.clip(-T * (lam - shift), -745.0, 50.0))) @ Q.T
        g = np.linalg.eigh(dense(fiber_hamiltonian(basis, 1.0, 0.0, 0.0)))[1][:, 0]
        free = np.exp(np.clip(-T * (p - basis.Pf) ** 2 / (2.0 * basis.m_eff()),
                              -745.0, 50.0))
        reference = np.linalg.norm(left - np.outer(g, g) * free[None, :], 2)
        assert semigroup_wcl_residual(basis, kappa, p, T) == pytest.approx(
            reference, rel=rel)

    def test_norm_failure_names_stage(self, monkeypatch):
        # dim 28: both ground states come from a dense stand-in, so only the
        # norm's iterative solve meets the step cap
        def dense_ground_state(H):
            vals, vecs = np.linalg.eigh(dense(H))
            return float(vals[0]), vecs[:, 0]

        monkeypatch.setattr(fockdesk, "ground_state", dense_ground_state)
        monkeypatch.setattr(fockdesk, "EIGEN_MAX_STEPS", 1)
        basis = build_basis(TWO_MODE, 6)
        with pytest.raises(NumericalError, match="semigroup operator norm"):
            semigroup_wcl_residual(basis, 1.0, 0.2, 1.0)

    def test_kappa_ladder_small_model(self):
        basis = build_basis([(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)], 20)
        res = [semigroup_wcl_residual(basis, kap, 0.2, 1.0) for kap in (1.0, 2.0, 4.0)]
        assert res[0] > res[1] > res[2]

    def test_matches_mpmath_oracle(self):
        # the same float64 operators, decomposed and exponentiated at 34 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        basis = build_basis(TWO_MODE, 6)
        assert basis.dim == 28
        kappa, p, T = 4.0, 0.2, 1.0
        with mp.workdps(34):
            def exact(operator):
                return mp.matrix([[mp.mpf(float(x)) for x in row] for row in dense(operator)])

            lam, Q = mp.eigsy(exact(fiber_hamiltonian(basis, kappa, p, 1.0)))
            omega = [mp.mpf(w) for w, _, _ in TWO_MODE]
            root = [mp.sqrt(W) for _, W, _ in TWO_MODE]
            mu = mp.eigsy(mp.diag([w**2 for w in omega])
                          + mp.matrix(root) * mp.matrix(root).T, eigvals_only=True)
            e_disc = mp.fsum(mp.sqrt(m) - w for m, w in zip(mu, omega)) / 2
            decay = [mp.exp(-T * (lam[i] - kappa**2 * e_disc)) for i in range(basis.dim)]
            semigroup = Q * mp.diag(decay) * Q.T
            lam_f, Q_f = mp.eigsy(exact(fiber_hamiltonian(basis, 1.0, 0.0, 0.0)))
            g = Q_f[:, min(range(basis.dim), key=lambda i: lam_f[i])]
            m_eff = 1 + mp.fsum(mp.mpf(W) / mp.mpf(w)**2 for w, W, _ in TWO_MODE)
            free = [mp.exp(-T * (p - mp.mpf(float(q)))**2 / (2 * m_eff))
                    for q in basis.Pf]
            X = semigroup - g * (mp.matrix([g[j] * free[j] for j in range(basis.dim)])).T
            oracle = mp.sqrt(max(mp.eigsy(X.T * X, eigvals_only=True)))
            got = semigroup_wcl_residual(basis, kappa, p, T)
            assert abs(got - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_no_dense_cliff(self, two_mode_basis, kappa):
        # dim 4186, past the old 2000-state dense limit; N_tot = 61 is already
        # truncation-converged at T = 1, so both sizes give the same residual
        big = build_basis(TWO_MODE, 90)
        assert big.dim == 4186
        res_big = semigroup_wcl_residual(big, kappa, 0.2, 1.0)
        res_61 = semigroup_wcl_residual(two_mode_basis, kappa, 0.2, 1.0)
        assert res_big == pytest.approx(res_61, rel=1e-11)

    @pytest.mark.parametrize("T", [1e4, 4e4, 1e5])
    def test_long_horizon_rank_one_limit(self, T):
        # one mode (1, 1, 0.6) at p = 0.2: the free term is at least e^{-T/100} and
        # the semigroup term below e^{-T/50}, so at these T, X = -f g^T to all
        # digits and ||X|| = ||f||.  The norm is taken on a rescaled X (unscaled,
        # X X^T would underflow to the zero operator); e^-1000 at T = 1e5 is 0
        basis = build_basis([(1.0, 1.0, 0.6)], 8)
        g = basis.ground_vector
        scaled = np.exp(T / 100 - T * (0.2 - basis.Pf) ** 2 / (2.0 * basis.m_eff()))
        expected = math.exp(-T / 100) * np.linalg.norm(g * scaled)
        got = semigroup_wcl_residual(basis, 1.0, 0.2, T)
        assert got == pytest.approx(expected, rel=1e-9, abs=0)
        if T == 1e4:
            assert got == pytest.approx(3.692390045532778e-44, rel=1e-12)   # as before

    @pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_nonnegative(self, T):
        basis = build_basis(TWO_MODE, 6)
        with pytest.raises(ValueError, match=r"^T: must be (finite|>= 0)"):
            semigroup_wcl_residual(basis, 1.0, 0.2, T)

    def test_overflow_names_stage(self, monkeypatch):
        # kappa^2 E_disc far above the ground energy: exp(T (shift - E_0)) > max float
        monkeypatch.setattr(fockdesk, "bogoliubov_energy", lambda modes: 1e3)
        basis = build_basis(TWO_MODE, 6)
        with pytest.raises(NumericalError, match="semigroup"):
            semigroup_wcl_residual(basis, 1.0, 0.2, 1.0)

    @pytest.mark.parametrize("T", [1e300, 1e308])
    def test_unreachable_horizon_refused_before_series(self, monkeypatch, T):
        # at T = 1e300 Miller's recurrence would start near order 2e151 and
        # never return; 2 T half overflows at T = 1e308.  No coefficient is summed
        def refuse(z):
            raise AssertionError(f"Bessel coefficients summed at z = {z}")

        monkeypatch.setattr(fockdesk, "_bessel_coefficients", refuse)
        basis = build_basis([(1.0, 1.0, 0.5)], 2)
        with pytest.raises(NumericalError, match=re.escape(f"semigroup: at T = {T}")):
            semigroup_wcl_residual(basis, 1.0, 0.2, T)


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
            basis = build_basis(modes, n_tot)
            e0 = ground_state(fiber_hamiltonian(basis, 1.0, 0.0, 1.0))[0]
            devs.append(abs(e0 - ref))
        assert devs[0] > devs[1] >= devs[2] >= devs[3]
