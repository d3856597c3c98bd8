import math

import numpy as np
import pytest

from pfwcl import jacobi
from pfwcl.errors import NumericalError
from pfwcl.jacobi import jacobi_eigh

EPS = np.finfo(float).eps


def check_decomposition(S):
    """||S V - V D|| <= 8 n eps ||S|| and ||V^T V - I|| <= 8 n eps, values
    ascending and within 8 n eps ||S|| of LAPACK's; returns (values, V)."""
    n = len(S)
    values, vectors = jacobi_eigh(S.tolist())
    D, V = np.array(values), np.array(vectors).T
    norm = np.linalg.norm(S, 2)
    assert np.all(np.diff(D) >= 0.0)
    assert np.linalg.norm(S @ V - V * D, 2) <= 8 * n * EPS * norm
    assert np.linalg.norm(V.T @ V - np.eye(n), 2) <= 8 * n * EPS
    assert np.max(np.abs(D - np.linalg.eigh(S)[0])) <= 8 * n * EPS * norm
    return D, V


@pytest.mark.parametrize("n", range(1, 9))
def test_random_symmetric(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        raw = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 5)
        check_decomposition(0.5 * (raw + raw.T))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_diagonal_and_zero(n):
    diagonal = np.diag(np.arange(n, 0, -1, dtype=float) - 2.5)
    D, V = check_decomposition(diagonal)
    assert list(D) == sorted(np.diag(diagonal))       # no rotation: exact values
    D, V = check_decomposition(np.zeros((n, n)))
    assert not D.any() and np.array_equal(V, np.eye(n))


@pytest.mark.parametrize("spectrum", [[1.0, 1.0, 1.0, 2.0, 2.0], [-3.0, 0.0, 0.0, 0.0, 0.0, 5.0],
                                      [7.0] * 8])
def test_repeated_eigenvalues(spectrum):
    n = len(spectrum)
    Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    S = (Q * spectrum) @ Q.T
    D, _ = check_decomposition(0.5 * (S + S.T))
    assert D == pytest.approx(sorted(spectrum), abs=8 * n * EPS * max(map(abs, spectrum)))


def test_graded_diagonal():
    grades = 10.0 ** np.linspace(-150, 150, 7)
    D, V = check_decomposition(np.diag(grades[::-1]))
    assert list(D) == list(grades) and np.array_equal(np.abs(V), np.eye(7)[::-1])


def test_graded_matrix_keeps_relative_accuracy():
    # S = G A G with A well conditioned: Jacobi finds every eigenvalue, the
    # smallest near 1e-150, to a few eps relative (Demmel and Veselic 1992);
    # LAPACK's three smallest are wrong in every digit.  The oracle needs
    # more than the 300 decades of the spectrum in its working precision
    mpmath = pytest.importorskip("mpmath")
    n = 5
    A = np.eye(n) + 0.3 * np.array([[0.0 if i == j else 1.0 / (i + j + 1) for j in range(n)]
                                    for i in range(n)])
    G = np.diag(10.0 ** np.linspace(-75, 75, n))
    S = G @ A @ G
    D, _ = check_decomposition(S)
    with mpmath.workdps(350):
        exact = sorted(mpmath.eigsy(mpmath.matrix(S.tolist()))[0])
    assert all(abs(d - float(e)) <= 16 * EPS * abs(float(e)) for d, e in zip(D, exact))


@pytest.mark.parametrize("seed", range(5))
def test_near_diagonal_like_lobpcg(seed):
    # the 3 x 3 Rayleigh-Ritz matrices of a converging LOBPCG: off-diagonals
    # about 1e-8 of the diagonal
    rng = np.random.default_rng(seed)
    diagonal = np.sort(rng.uniform(0.5, 20.0, 3))
    off = 1e-8 * rng.standard_normal((3, 3)) * np.sqrt(np.outer(diagonal, diagonal))
    check_decomposition(np.diag(diagonal) + 0.5 * (off + off.T))


def test_entries_near_overflow():
    # d_q - d_p overflows here, yet the rotation angle is exact
    values, vectors = jacobi_eigh([[1e308, 1e308], [1e308, -1e308]])
    assert values == pytest.approx([-math.sqrt(2.0) * 1e308, math.sqrt(2.0) * 1e308], rel=4 * EPS)


def test_reads_lower_triangle():
    S = np.array([[2.0, 99.0], [1.0, 2.0]])
    assert jacobi_eigh(S.tolist())[0] == pytest.approx([1.0, 3.0], rel=4 * EPS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_raises(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        jacobi_eigh([[1.0, 0.0], [bad, 1.0]])


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    raw = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(NumericalError, match="no convergence in 1 sweeps"):
        jacobi_eigh((raw + raw.T).tolist())
