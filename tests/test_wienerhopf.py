import math

import numpy as np
import pytest

from pfwcl import wienerhopf
from pfwcl.energy import dipole_dispersion, log_spectral_energy
from pfwcl.errors import NumericalError
from pfwcl.formfactor import PointMasses, RadialMeasure
from pfwcl.wienerhopf import (PSD_EIG_TOL, WienerHopfGrid, ak_convergence_report,
                              build_grid, log_det, mass_functional, solve_uT,
                              vacuum_amplitude)

NULL = RadialMeasure(3, PointMasses([]))
REF_LADDER = [10.0, 20.0, 40.0, 80.0]


def atom_logdet_exact(omega, weight, kappa, T):
    """Closed-form log det(1 + kappa^2 C_T) of a single atom (omega, weight):
    (b - a) T + log((a + b)^2 / (4 a b)) + log(1 - ((b - a)/(b + a))^2 e^{-2 b T})
    with a = kappa^2 omega and b = sqrt(a^2 + kappa^2 weight a / omega)."""
    a = kappa * kappa * omega
    b = math.sqrt(a * a + kappa * kappa * weight * a / omega)
    return ((b - a) * T + math.log((a + b) ** 2 / (4.0 * a * b))
            + math.log1p(-((b - a) / (b + a)) ** 2 * math.exp(-2.0 * b * T)))


def spy_calls(monkeypatch, names=("build_grid", "cho_factor", "eigvalsh")):
    """Count the calls wienerhopf makes to each of ``names``."""
    calls = dict.fromkeys(names, 0)

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(wienerhopf, name, spy(name, getattr(wienerhopf, name)))
    return calls


def hand_grid(ff, M, kappa=1.0):
    """A grid around a given symmetric matrix, for the PSD check."""
    n = len(M)
    return WienerHopfGrid(ff=ff, kappa=kappa, T=float(n), n=n, nodes=np.arange(n) + 0.5,
                          weights=np.ones(n), M=np.asarray(M, dtype=float))


@pytest.fixture(scope="module")
def atom_grid_T40(pm_atom):
    return build_grid(pm_atom, 1.0, 40.0, 1600)


class TestGrid:
    def test_weights_sum_to_T(self, pm_atom):
        g = build_grid(pm_atom, 1.0, 12.5, 320)
        assert math.fsum(g.weights) == pytest.approx(12.5, rel=1e-13)
        assert np.all(g.weights > 0)
        assert np.all((g.nodes >= 0) & (g.nodes <= 12.5))

    def test_null_measure_zero_matrix(self):
        g = build_grid(NULL, 1.0, 10.0, 80)
        assert np.all(g.M == 0.0)

    def test_kernel_symmetric(self, atom_grid_T40):
        assert np.array_equal(atom_grid_T40.M, atom_grid_T40.M.T)

    def test_psd_up_to_tolerance(self, atom_grid_T40):
        lams = atom_grid_T40.eigenvalues()
        scale = max(abs(lams[0]), abs(lams[-1]))
        assert lams[0] >= -1e-10 * scale

    def test_node_floor(self, pm_atom):
        with pytest.raises(ValueError):
            build_grid(pm_atom, 1.0, 5.0, 4)
        with pytest.raises(ValueError):
            build_grid(pm_atom, 1.0, 0.0, 100)

    def test_doubling_nodes_is_stable(self, pm_atom):
        # quadrature-weight Nystrom on the |t-s| kernel cusp converges at
        # O(h^2); at 40 nodes per unit the doubling change sits near 1e-4
        a = log_det(build_grid(pm_atom, 1.0, 10.0, 400))
        b = log_det(build_grid(pm_atom, 1.0, 10.0, 800))
        assert abs(b - a) / a < 5e-4


class TestLogDet:
    def test_kappa_zero(self, pm_atom):
        g = build_grid(pm_atom, 0.0, 10.0, 80)
        assert log_det(g) == 0.0

    def test_atom_rate_near_limit(self, atom_grid_T40):
        rate = log_det(atom_grid_T40) / 40.0
        assert rate == pytest.approx(1.0, abs=0.02)

    def test_nonnegative_and_trace_bound(self, atom_grid_T40):
        ld = log_det(atom_grid_T40)
        assert 0.0 <= ld <= 1.0**2 * float(np.trace(atom_grid_T40.M))


class TestUT:
    def test_kappa_zero_identity(self, pm_atom):
        g = build_grid(pm_atom, 0.0, 10.0, 80)
        assert np.allclose(solve_uT(g), 1.0, atol=1e-14)
        assert mass_functional(g) == pytest.approx(1.0, rel=1e-14)

    def test_null_measure_identity(self):
        g = build_grid(NULL, 1.0, 10.0, 80)
        assert np.allclose(solve_uT(g), 1.0, atol=1e-14)

    def test_discrete_residual(self, atom_grid_T40):
        u = solve_uT(atom_grid_T40)
        sqw = np.sqrt(atom_grid_T40.weights)
        res = u + (atom_grid_T40.M @ (sqw * u)) / sqw - 1.0
        assert np.max(np.abs(res)) <= 1e-10

    def test_mass_functional_in_unit_interval(self, pm_atom):
        for T in (5.0, 20.0):
            g = build_grid(pm_atom, 1.0, T, int(40 * T))
            assert 0.0 < mass_functional(g) <= 1.0

    def test_mass_ladder_approaches_quarter(self, pm_atom):
        devs = []
        for T in (10.0, 20.0, 40.0):
            g = build_grid(pm_atom, 1.0, T, int(40 * T))
            devs.append(abs(mass_functional(g) - 0.25))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.02


class TestVacuumAmplitude:
    def test_trivial_cases(self, pm_atom):
        assert vacuum_amplitude(pm_atom, 0.0, 0.0, 5.0, 80) == pytest.approx(1.0)
        assert 0.0 < vacuum_amplitude(pm_atom, 1.0, 0.5, 5.0, 80) <= 1.0

    def test_rate_matches_dipole_dispersion(self, pm_atom):
        va = vacuum_amplitude(pm_atom, 1.0, 1.0, 40.0, 1600)
        rate = -math.log(va) / 40.0
        # limit = 1/(2 m_eff) + calE = 1/8 + 1/2
        assert rate == pytest.approx(0.625, rel=0.03)
        assert rate == pytest.approx(dipole_dispersion(pm_atom, 1.0, 1.0), rel=0.03)

    def test_matrix_level_identity(self, pm_atom):
        kappa, p, T, n = 1.0, 0.7, 10.0, 400
        grid = build_grid(pm_atom, kappa, T, n)
        expected = math.exp(-0.5 * log_det(grid)
                            - 0.5 * p * p * T * mass_functional(grid))
        assert vacuum_amplitude(pm_atom, kappa, p, T, n) == pytest.approx(
            expected, rel=1e-13)

    def test_zero_momentum_ties_to_log_det(self, pm_atom):
        T, n = 10.0, 400
        grid = build_grid(pm_atom, 1.0, T, n)
        va = vacuum_amplitude(pm_atom, 1.0, 0.0, T, n)
        assert -math.log(va) / T == pytest.approx(0.5 * log_det(grid) / T, rel=1e-12)

    def test_continuum_carries_d_copies(self, cutoff1):
        # the d-fold direct sum enters algebraically: -(1/T) log amplitude
        # at p = 0 equals (d/2) (1/T) log det of the scalar block
        T, n = 5.0, 200
        grid = build_grid(cutoff1, 1.0, T, n)
        va = vacuum_amplitude(cutoff1, 1.0, 0.0, T, n)
        assert -math.log(va) == pytest.approx(1.5 * log_det(grid), rel=1e-12)


class TestAkReport:
    def test_atom_ladder_monotone(self, pm_atom):
        rows = ak_convergence_report(pm_atom, 1.0, [10.0, 20.0, 40.0])
        ak = [abs(r["ak_dev"]) for r in rows]
        mass = [abs(r["mass_dev"]) for r in rows]
        assert ak[0] > ak[1] > ak[2]
        assert mass[0] > mass[1] > mass[2]
        # doubling-ladder contract: last rung at most half the first
        assert ak[2] <= 0.5 * ak[0]
        assert mass[2] <= 0.5 * mass[0]
        assert rows[0]["ak_target"] == pytest.approx(1.0, rel=1e-10)
        assert rows[0]["mass_target"] == pytest.approx(0.25, rel=1e-14)

    def test_null_measure_exact(self):
        rows = ak_convergence_report(NULL, 1.0, [5.0, 10.0], n=80)
        for r in rows:
            assert r["ak_dev"] == 0.0
            assert r["mass_dev"] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_within_five_percent(self, gauss1):
        rows = ak_convergence_report(gauss1, 1.0, [20.0])
        target = log_spectral_energy(gauss1, 1.0)
        assert abs(rows[0]["ak_dev"]) / target < 0.05

    def test_tabulated_kernel_spline_path(self):
        from pfwcl.formfactor import Tabulated
        tab = RadialMeasure(3, Tabulated([(0.5, 0.0), (1.0, 1.0), (1.5, 0.0)]))
        rows = ak_convergence_report(tab, 1.0, [10.0], n=400)
        assert abs(rows[0]["ak_dev"]) / rows[0]["ak_target"] < 0.05
        assert 0.0 < rows[0]["mass_fn"] <= 1.0

    def test_decreasing_T_rejected(self, pm_atom):
        with pytest.raises(ValueError):
            ak_convergence_report(pm_atom, 1.0, [10.0, 5.0])


@pytest.fixture(scope="module")
def atom_ladder(pm_atom):
    return ak_convergence_report(pm_atom, 1.0, REF_LADDER)


class TestNestedLadder:
    """A ladder factors one grid per panel width and reads rungs as leading blocks."""

    def test_atom_rungs_meet_closed_form(self, atom_ladder):
        for row in atom_ladder:
            exact = atom_logdet_exact(1.0, 3.0, 1.0, row["T"])
            assert abs(row["logdet_per_T"] - exact / row["T"]) <= 2.2e-4

    def test_rows_equal_independent_rungs(self, pm_atom, atom_ladder):
        for row in atom_ladder:
            grid = build_grid(pm_atom, 1.0, row["T"])
            assert row["n"] == grid.n
            assert row["logdet_per_T"] == pytest.approx(log_det(grid) / row["T"], rel=1e-13)
            assert row["mass_fn"] == pytest.approx(mass_functional(grid), rel=1e-13)

    def test_leading_block_is_the_smaller_grid(self, pm_atom):
        full = build_grid(pm_atom, 1.0, 20.0)
        rung, alone = full.leading(10.0, 400), build_grid(pm_atom, 1.0, 10.0)
        for attr in ("nodes", "weights", "M"):
            assert np.array_equal(getattr(rung, attr), getattr(alone, attr))
        assert np.shares_memory(rung.M, full.M)

    def test_default_ladder_one_build_two_factorizations(self, pm_atom, monkeypatch):
        calls = spy_calls(monkeypatch)
        ak_convergence_report(pm_atom, 1.0, REF_LADDER)
        # the PSD certificate and 1 + kappa^2 M, both on the T = 80 grid
        assert calls == {"build_grid": 1, "cho_factor": 2, "eigvalsh": 0}

    def test_fixed_nodes_build_every_rung(self, pm_atom, monkeypatch):
        calls = spy_calls(monkeypatch)
        rows = ak_convergence_report(pm_atom, 1.0, [5.0, 10.0, 20.0], n=160)
        assert calls == {"build_grid": 3, "cho_factor": 6, "eigvalsh": 0}
        assert [r["n"] for r in rows] == [160] * 3

    def test_node_cap_splits_the_group(self, pm_atom, monkeypatch):
        # T = 1, 2 keep 0.2 wide panels; the cap halves T = 4's density
        monkeypatch.setattr(wienerhopf, "NODE_CAP", 80)
        calls = spy_calls(monkeypatch, ("build_grid",))
        rows = ak_convergence_report(pm_atom, 1.0, [1.0, 2.0, 4.0])
        assert calls["build_grid"] == 2
        assert [r["n"] for r in rows] == [40, 80, 80]
        grid = build_grid(pm_atom, 1.0, 4.0, 80)
        assert rows[2]["logdet_per_T"] == log_det(grid) / 4.0


class TestPsdCheck:
    def test_indefinite_matrix_names_min_eigenvalue(self, pm_atom):
        grid = hand_grid(pm_atom, [[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NumericalError, match="min eigenvalue -5.000e-01"):
            log_det(grid)

    def test_certificate_failure_falls_back_to_eigenvalues(self, pm_atom, monkeypatch):
        # lambda_min sits between -PSD_EIG_TOL * scale (accepted, as before)
        # and -PSD_EIG_TOL/2 * max diag M (where the certificate stops)
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lams = np.array([-1.2e-10, 0.3, 0.5, 1.0, 1.5, 2.0])
        M = Q @ np.diag(lams) @ Q.T
        M = 0.5 * (M + M.T)
        exact = np.linalg.eigvalsh(M)
        assert -PSD_EIG_TOL * exact[-1] < exact[0] < -0.5 * PSD_EIG_TOL * np.max(np.diag(M))
        calls = spy_calls(monkeypatch, ("cho_factor", "eigvalsh"))
        ld = log_det(hand_grid(pm_atom, M))
        assert calls == {"cho_factor": 2, "eigvalsh": 1}
        # the factor keeps the tolerated negative eigenvalue: log(1 - 1.2e-10)
        assert ld == pytest.approx(float(np.sum(np.log1p(exact))), rel=1e-13)
