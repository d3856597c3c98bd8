import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pfwcl import wienerhopf
from pfwcl.energy import SpectralFunctions, dipole_dispersion, log_spectral_energy
from pfwcl.errors import NumericalError
from pfwcl.fockdesk import bogoliubov_energy
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure, SharpCutoff,
                              Tabulated)
from pfwcl.wienerhopf import (ak_convergence_report, log_det, mass_functional, realization,
                              solve_uT, vacuum_amplitude)

NULL = RadialMeasure(3, PointMasses([]))
TABULATED = RadialMeasure(3, Tabulated([(0.5, 0.0), (1.0, 1.0), (1.5, 0.0)]))
REF_LADDER = [10.0, 20.0, 40.0, 80.0]
ORACLE_MEASURES = ["pm_atom", "gauss1", "cutoff1", "tabulated", "gauss4"]


def atom_logdet_exact(omega, weight, kappa, T):
    """Closed-form log det(1 + kappa^2 C_T) of a single atom (omega, weight):
    (b - a) T + log((a + b)^2 / (4 a b)) + log(1 - ((b - a)/(b + a))^2 e^{-2 b T})
    with a = kappa^2 omega and b = sqrt(a^2 + kappa^2 weight a / omega)."""
    a = kappa * kappa * omega
    b = math.sqrt(a * a + kappa * kappa * weight * a / omega)
    return ((b - a) * T + math.log((a + b) ** 2 / (4.0 * a * b))
            + math.log1p(-((b - a) / (b + a)) ** 2 * math.exp(-2.0 * b * T)))


def atom_logdet_mp(omega, weight, kappa, T):
    """The same closed form in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = mp.mpf(kappa) ** 2 * omega
        b = mp.sqrt(a * a + mp.mpf(kappa) ** 2 * weight * a / omega)
        return float((b - a) * T + mp.log((a + b) ** 2 / (4 * a * b))
                     + mp.log(1 - ((b - a) / (b + a)) ** 2 * mp.exp(-2 * b * T)))


def nystrom(ff, kappa, T, panels):
    """Independent oracle: (log det, mass functional) of the composite order-8
    Gauss-Legendre Nystrom matrix, kernel rho summed over the measure's rule."""
    x, w = np.polynomial.legendre.leggauss(8)
    h = T / panels
    sf = SpectralFunctions(ff, kappa)
    rho = np.array([np.vectorize(sf.rho)((m + 0.5 * (x[:, None] - x[None, :])) * h)
                    for m in range(1 - panels, panels)])
    p = np.arange(panels)
    M = rho[p[:, None] - p[None, :] + panels - 1].transpose(0, 2, 1, 3).reshape(8 * panels, -1)
    weights = np.tile(0.5 * h * w, panels)
    sw = np.sqrt(weights)
    A = np.eye(len(sw)) + kappa ** 2 * sw[:, None] * M * sw[None, :]
    sign, ld = np.linalg.slogdet(A)
    assert sign == 1.0
    u = np.linalg.solve(A, sw) / sw
    return ld, float(weights @ u) / T


def riccati_reference(ss, S):
    """The Riccati route log det(1 + K_S) = (g P g^T) S + log det(1 + X(S) Delta)
    (Kailath 1970) and its constant term B = log det(1 + X Delta), an oracle
    independent of the boundary identity: P is the stabilizing filtering ARE
    solution, F = -diag(lam) - P g^T g, F^T X + X F + g^T g = 0, Delta = I - P
    and X(S) = X - e^{F^T S} X e^{F S}, from one Van Loan exponential when
    S |F| <= 1, where that difference would cancel."""
    linalg = pytest.importorskip("scipy.linalg")
    g, D, gg = ss.g, np.diag(ss.lam), np.outer(ss.g, ss.g)
    P = linalg.solve_continuous_are(-D, g[:, None], 2.0 * D, np.ones((1, 1)))
    P = 0.5 * (P + P.T)
    F = -D - P @ gg
    X = linalg.solve_continuous_lyapunov(F.T, -gg)
    X = 0.5 * (X + X.T)
    delta, V = linalg.eigh(np.eye(len(g)) - P)
    G = V * np.sqrt(np.clip(delta, 0.0, None))
    if S * np.linalg.norm(F, 1) <= 1.0:
        n = len(g)  # the top right block of the exponential is e^{-F^T S} X(S)
        block = linalg.expm(S * np.block([[-F.T, gg], [np.zeros((n, n)), F]]))
        XS = block[n:, n:].T @ block[:n, n:]
    else:
        E = linalg.expm(S * F)
        XS = X - E.T @ X @ E

    def log1p_det(N):
        return float(np.sum(np.log1p(np.linalg.eigvalsh(N))))

    return float(g @ P @ g) * S + log1p_det(G.T @ (0.5 * (XS + XS.T)) @ G), log1p_det(G.T @ X @ G)


@pytest.fixture(scope="module")
def tabulated():
    return TABULATED


@pytest.fixture(scope="module")
def gauss4():
    return RadialMeasure(4, GaussianProfile(2.0))


def realized_rho(ff, kappa, tau):
    ss = realization(ff)
    return np.exp(-np.abs(np.asarray(tau))[..., None] * kappa ** 2 * ss.lam) @ ss.g ** 2


class TestGrid:
    """The state-space realization that replaced the Nystrom grid."""

    def test_null_measure_zero_matrix(self):
        assert len(realization(NULL).lam) == 0
        assert log_det(NULL, 1.0, 10.0) == 0.0
        assert mass_functional(NULL, 1.0, 10.0) == 1.0

    def test_kernel_symmetric(self, pm_atom, gauss1, cutoff1):
        # the realized kernel is even and reproduces the rule's rho
        tau = np.array([0.0, 1e-3, 0.1, 1.0, 7.5, 80.0])
        for ff in (pm_atom, gauss1, cutoff1):
            rho = SpectralFunctions(ff, 1.3).rho(tau)
            assert np.array_equal(realized_rho(ff, 1.3, tau), realized_rho(ff, 1.3, -tau))
            assert np.max(np.abs(realized_rho(ff, 1.3, tau) - rho)) <= 1e-14 * rho[0]

    def test_psd_up_to_tolerance(self, gauss1, cutoff1):
        # positive rates and real gains make every K_S PSD; the symbol error
        # stays inside the balanced-truncation bound 4 tail behind disc_err.
        # Both symbols are summed in long double, so their own rounding stays out.
        t = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 60))).astype(np.longdouble)
        for ff in (gauss1, cutoff1, TABULATED):
            ss = realization(ff)
            assert np.all(ss.lam > 0.0)
            r, w = (a.astype(np.longdouble) for a in ff.rule())
            lam, g = ss.lam.astype(np.longdouble), ss.g.astype(np.longdouble)
            exact = w @ (1.0 / (r[:, None] ** 2 + t ** 2))
            realized = (2.0 * lam * g ** 2) @ (1.0 / (lam[:, None] ** 2 + t ** 2))
            assert float(np.max(np.abs(realized - exact))) <= 4.0 * ss.tail
            assert 0.0 < ss.disc_err(1.0) < 1e-5
        assert 40 <= len(realization(gauss1).lam) <= 100

    def test_weights_sum_to_T(self, pm_atom):
        # Gauss weights on [0, T] integrate u_T to the closed-form T * mass_fn
        T, u = 12.5, solve_uT(pm_atom, 1.0, 12.5).at
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, T, 41)
        half = 0.5 * np.diff(edges)[:, None]
        nodes, weights = (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()
        assert math.fsum(weights) == pytest.approx(T, rel=1e-13)
        assert float(weights @ u(nodes)) == pytest.approx(T * mass_functional(pm_atom, 1.0, T),
                                                          rel=1e-13)

    def test_node_floor(self, pm_atom):
        for bad in ((1.0, 0.0), (1.0, -5.0), (-1.0, 5.0), (math.nan, 5.0)):
            with pytest.raises(ValueError):
                log_det(pm_atom, *bad)
            with pytest.raises(ValueError):
                solve_uT(pm_atom, *bad)

    def test_doubling_nodes_is_stable(self, gauss1, cutoff1):
        # Nystrom on the |t - s| kink converges at O(h^2): doubling moves log
        # det by < 5e-4, and Richardson on (n, 2n) closes in on the closed form
        T = 5.0
        for ff in (gauss1, cutoff1):
            (ld1, m1), (ld2, m2) = nystrom(ff, 1.0, T, 50), nystrom(ff, 1.0, T, 100)
            assert abs(ld2 - ld1) / ld1 < 5e-4
            exact_ld, exact_m = log_det(ff, 1.0, T), mass_functional(ff, 1.0, T)
            assert abs((4.0 * ld2 - ld1) / 3.0 - exact_ld) <= 0.01 * abs(ld2 - exact_ld)
            assert abs((4.0 * m2 - m1) / 3.0 - exact_m) <= 0.01 * abs(m2 - exact_m)
            # the old default of 40 nodes per unit T sits within its O(h^2) error
            assert abs(nystrom(ff, 1.0, T, 25)[0] - exact_ld) / T < 5e-4


class TestLogDet:
    def test_kappa_zero(self, pm_atom):
        assert log_det(pm_atom, 0.0, 10.0) == 0.0

    def test_atom_rate_near_limit(self, pm_atom):
        assert log_det(pm_atom, 1.0, 40.0) / 40.0 == pytest.approx(1.0, abs=0.02)

    def test_nonnegative_and_trace_bound(self, pm_atom, gauss1, cutoff1):
        # 0 <= log det(1 + kappa^2 C_T) <= kappa^2 tr C_T = kappa^2 T rho(0)
        for ff in (pm_atom, gauss1, cutoff1):
            for kappa, T in ((1.0, 40.0), (0.3, 2.0)):
                rho0 = float(SpectralFunctions(ff, kappa).rho(0.0))
                assert 0.0 <= log_det(ff, kappa, T) <= kappa ** 2 * T * rho0

    @pytest.mark.parametrize("T", [10.0, 40.0, 1e3, 1e4])
    def test_atom_closed_form_to_1e4(self, pm_atom, T):
        assert log_det(pm_atom, 1.0, T) == pytest.approx(atom_logdet_mp(1.0, 3.0, 1.0, T),
                                                         rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e-2, 1e-3, 1e-5, 1e-7])
    def test_small_kappa_keeps_relative_accuracy(self, pm_atom, kappa):
        assert log_det(pm_atom, kappa, 10.0) == pytest.approx(
            atom_logdet_mp(1.0, 3.0, kappa, 10.0), rel=1e-10)

    @pytest.mark.parametrize("ff", [RadialMeasure(3, GaussianProfile(1.0)),
                                    RadialMeasure(3, SharpCutoff(1.0)), TABULATED,
                                    RadialMeasure(4, GaussianProfile(2.0))],
                             ids=["gauss3", "sharp3", "tabulated3", "gauss4"])
    def test_rate_matches_log_spectral(self, ff):
        rate = realization(ff).asymptote[0]
        for kappa in (1.0, 0.7):
            assert kappa ** 2 * rate == pytest.approx(log_spectral_energy(ff, kappa), rel=1e-10)

    def test_atom_constant_term(self, pm_atom):
        # B = log((a + b)^2 / (4 a b)) with a = 1, b = 2
        assert realization(pm_atom).asymptote[1] == pytest.approx(math.log(9.0 / 8.0), rel=1e-13)

    @pytest.mark.parametrize("name", ORACLE_MEASURES)
    @pytest.mark.parametrize("S", [1e-9, 1e-3, 1.0, 80.0, 1e5])
    def test_matches_riccati_route(self, name, S, request):
        ff = request.getfixturevalue(name)
        ss = realization(ff)
        ref_ld, ref_B = riccati_reference(ss, S)
        assert log_det(ff, 1.0, S) == pytest.approx(ref_ld, rel=1e-12)
        assert ss.asymptote[1] == pytest.approx(ref_B, rel=1e-12)

    @pytest.mark.parametrize("name", ORACLE_MEASURES[1:])
    @pytest.mark.parametrize("S", [1e-9, 1e-6])
    def test_small_S_series(self, name, S, request):
        # log det(1 + K) = tr K - tr K^2/2 + tr K^3/3 - ..., where at small S
        # tr K^3 = (S rho_1(0))^3 + O(S^4) and tr K_S^2 = int int rho_1(x - y)^2
        ff = request.getfixturevalue(name)
        ss = realization(ff)
        trK, w = S * float(np.sum(ss.g ** 2)), np.outer(ss.g ** 2, ss.g ** 2)
        c = ss.lam[:, None] + ss.lam
        trK2 = float(np.sum(w * (S ** 2 - c * S ** 3 / 3.0 + c * c * S ** 4 / 12.0)))
        assert log_det(ff, 1.0, S) == pytest.approx(trK - 0.5 * trK2 + trK ** 3 / 3.0,
                                                    rel=1e-12)


def normal_modes_mp(atoms):
    """(rate, B) of the atoms from the eigenvalues of diag(omega^2) + v v^T,
    v_j = sqrt(W_j), at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        omega = [mp.mpf(w) for w, _ in atoms]
        v = mp.matrix([mp.sqrt(W) for _, W in atoms])
        mu = [mp.sqrt(m) for m in sorted(mp.eigsy(mp.diag([w ** 2 for w in omega]) + v * v.T,
                                                  eigvals_only=True))]
        omega.sort()
        d = [m - w for m, w in zip(mu, omega)]
        B = sum(mp.log1p(d[i] * d[j] / ((omega[i] + omega[j]) * (mu[i] + mu[j])))
                for i in range(len(d)) for j in range(len(d)))
        return float(sum(d)), float(B)


class TestNormalModes:
    @pytest.mark.parametrize("omega", [1e-2, 1.0, 1e3])
    def test_single_atom_rate_keeps_relative_accuracy(self, omega):
        # sqrt(omega^2 + W) - omega with nothing cancelled, W / omega^2 in [1e-12, 1e3]
        for W in omega * omega * 10.0 ** np.arange(-12.0, 4.0):
            rate = realization(RadialMeasure(3, PointMasses([(omega, W)]))).asymptote[0]
            assert rate == pytest.approx(W / (math.sqrt(omega * omega + W) + omega),
                                         rel=1e-15, abs=0), W

    def test_rate_B_and_bogoliubov_match_mpmath(self):
        # 300 random 1-6 atom sets, omega in [1e-3, 1e3], W in [1e-6, 1e4]
        rng = np.random.default_rng(11)
        for _ in range(300):
            atoms = [(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-6, 4))
                     for _ in range(rng.integers(1, 7))]
            rate, B = normal_modes_mp(atoms)
            ss = realization(RadialMeasure(3, PointMasses(atoms)))
            assert ss.asymptote[0] == pytest.approx(rate, rel=2e-15, abs=0), atoms
            assert ss.asymptote[1] == pytest.approx(B, rel=2e-15, abs=0), atoms
            assert 2.0 * bogoliubov_energy(atoms) == pytest.approx(rate, rel=2e-15, abs=0), atoms

    def test_weak_atom_long_horizon(self):
        # log det / T carries the rate W / (sqrt(omega^2 + W) + omega) = 5e-7
        ff = RadialMeasure(3, PointMasses([(1e3, 1e-3)]))
        assert log_det(ff, 1.0, 1e6) / 1e6 == pytest.approx(
            atom_logdet_mp(1e3, 1e-3, 1.0, 1e6) / 1e6, rel=1e-14, abs=0)

    def test_shared_frequencies_merge_into_one_state(self):
        split = RadialMeasure(3, PointMasses([(1.0, 1.0), (1.0, 2.0), (2.0, 0.5)]))
        merged = RadialMeasure(3, PointMasses([(1.0, 3.0), (2.0, 0.5)]))
        assert ak_convergence_report(split, 1.0, [10.0])[0]["n"] == 2
        for T in (10.0, 1e3):
            assert log_det(split, 1.0, T) == log_det(merged, 1.0, T)
            assert mass_functional(split, 1.0, T) == mass_functional(merged, 1.0, T)


class TestBalancedTruncation:
    @pytest.mark.parametrize("name", ["gauss1", "cutoff1"])
    def test_svd_sees_only_the_square_factor(self, name, request, monkeypatch):
        # the K-length contractions run in einsum; svd sees only the r0 x r0
        # Gram-Schmidt factor R, r0 the pivoted Cholesky's rank (K = 1060 nodes)
        ff = request.getfixturevalue(name)
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return np.linalg.svd(a, *args, **kwargs)

        monkeypatch.setattr(wienerhopf, "svd", spy)
        r, w = ff.rule()
        n = len(wienerhopf._balanced_truncation(r, w).lam)
        [(rows, cols)] = shapes
        assert rows == cols and n <= rows < len(r) // 10

    def test_vanishing_column_is_numerical_error(self, cutoff1, monkeypatch):
        einsum = np.einsum

        def null_norm(subscripts, *operands):
            return 0.0 if subscripts == "k,k->" else einsum(subscripts, *operands)

        monkeypatch.setattr(np, "einsum", null_norm)
        with pytest.raises(NumericalError, match="balanced truncation: Gram-Schmidt column 0"):
            wienerhopf._balanced_truncation(*cutoff1.rule())


class TestUT:
    def test_kappa_zero_identity(self, pm_atom):
        u = solve_uT(pm_atom, 0.0, 10.0)
        assert np.allclose(u.at(np.linspace(0.0, 10.0, 7)), 1.0, atol=1e-14)
        assert mass_functional(pm_atom, 0.0, 10.0) == 1.0

    def test_null_measure_identity(self):
        assert np.allclose(solve_uT(NULL, 1.0, 10.0).at(np.linspace(0.0, 10.0, 7)), 1.0,
                           atol=1e-14)

    def test_discrete_residual(self, pm_atom):
        # u + kappa^2 C_T u - 1 with C_T u by composite Gauss on either side of t
        # kappa = 1, so x = t
        T, u = 40.0, solve_uT(pm_atom, 1.0, 40.0).at
        x, w = np.polynomial.legendre.leggauss(16)
        for t in (0.0, 0.3, 7.0, 20.0, 39.9, 40.0):
            conv = 0.0
            for a, b in ((0.0, t), (t, T)):
                edges = np.linspace(a, b, 41)
                half = 0.5 * np.diff(edges)[:, None]
                s = (edges[:-1, None] + half * (1.0 + x)).ravel()
                conv += float((half * w).ravel() @ (1.5 * np.exp(-np.abs(t - s)) * u(s)))
            assert abs(float(u(t)) + conv - 1.0) <= 1e-10

    def test_residual_check_raises(self, pm_atom, monkeypatch):
        monkeypatch.setattr(wienerhopf, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match="u_T solve residual"):
            solve_uT(pm_atom, 1.0, 7.0)

    def test_mass_functional_in_unit_interval(self, pm_atom):
        for T in (5.0, 20.0):
            assert 0.0 < mass_functional(pm_atom, 1.0, T) <= 1.0

    def test_mass_ladder_approaches_quarter(self, pm_atom):
        devs = [abs(mass_functional(pm_atom, 1.0, T) - 0.25) for T in (10.0, 20.0, 40.0)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.02

    @pytest.mark.parametrize("T", [40.0, 1e3, 1e4])
    def test_atom_mass_excess_is_quarter_over_T(self, pm_atom, T):
        assert T * (mass_functional(pm_atom, 1.0, T) - 0.25) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("T", [20.0, 1e6])
    def test_residual_check_memory_is_per_panel(self, gauss1, T):
        # the residual holds (4, n, n) arrays one panel at a time, never the
        # (nodes, n, n) tensor of all panels (6.9 MiB at T = 1e6)
        ss = realization(gauss1)
        assert len(ss.lam) == 77
        ss.modes              # cached per measure: built before the trace starts
        tracemalloc.start()
        try:
            solve_uT(gauss1, 1.0, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20

    @pytest.mark.parametrize("name", ["pm_atom", "gauss1", "cutoff1"])
    def test_no_warning_up_to_S_1e5(self, name, request):
        ff = request.getfixturevalue(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (1e-9, 1.0, 1e3, 1e5):
                assert math.isfinite(log_det(ff, 1.0, T))
                assert 0.0 < mass_functional(ff, 1.0, T) <= 1.0


class TestVacuumAmplitude:
    def test_trivial_cases(self, pm_atom):
        assert vacuum_amplitude(pm_atom, 0.0, 0.0, 5.0) == pytest.approx(1.0)
        assert 0.0 < vacuum_amplitude(pm_atom, 1.0, 0.5, 5.0) <= 1.0

    def test_rate_matches_dipole_dispersion(self, pm_atom):
        rate = -math.log(vacuum_amplitude(pm_atom, 1.0, 1.0, 40.0)) / 40.0
        # limit = 1/(2 m_eff) + calE = 1/8 + 1/2
        assert rate == pytest.approx(0.625, rel=0.03)
        assert rate == pytest.approx(dipole_dispersion(pm_atom, 1.0, 1.0), rel=0.03)

    def test_matrix_level_identity(self, pm_atom):
        kappa, p, T = 1.0, 0.7, 10.0
        expected = math.exp(-0.5 * log_det(pm_atom, kappa, T)
                            - 0.5 * p * p * T * mass_functional(pm_atom, kappa, T))
        assert vacuum_amplitude(pm_atom, kappa, p, T) == pytest.approx(expected, rel=1e-13)

    def test_zero_momentum_ties_to_log_det(self, pm_atom):
        T = 10.0
        va = vacuum_amplitude(pm_atom, 1.0, 0.0, T)
        assert -math.log(va) / T == pytest.approx(0.5 * log_det(pm_atom, 1.0, T) / T, rel=1e-12)

    def test_continuum_carries_d_copies(self, cutoff1):
        # the d-fold direct sum enters algebraically: -(1/T) log amplitude
        # at p = 0 equals (d/2) (1/T) log det of the scalar block
        va = vacuum_amplitude(cutoff1, 1.0, 0.0, 5.0)
        assert -math.log(va) == pytest.approx(1.5 * log_det(cutoff1, 1.0, 5.0), rel=1e-12)


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
        rows = ak_convergence_report(NULL, 1.0, [5.0, 10.0])
        for r in rows:
            assert r["ak_dev"] == 0.0 and r["n"] == 0
            assert r["mass_dev"] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_within_five_percent(self, gauss1):
        rows = ak_convergence_report(gauss1, 1.0, [20.0])
        target = log_spectral_energy(gauss1, 1.0)
        assert abs(rows[0]["ak_dev"]) / target < 0.05

    def test_tabulated_kernel_spline_path(self):
        rows = ak_convergence_report(TABULATED, 1.0, [10.0])
        assert abs(rows[0]["ak_dev"]) / rows[0]["ak_target"] < 0.05
        assert 0.0 < rows[0]["mass_fn"] <= 1.0

    def test_point_mass_target_is_exact(self):
        # ak_target is kappa^2 times the realization's rate, exact for point
        # masses, so at T = 1e6, where ak_B / T is far below rounding, ak_dev
        # is rounding (about 170 eps with a t-quadrature's target)
        ff = RadialMeasure(3, PointMasses([(1e3, 1e-3)]))
        row = ak_convergence_report(ff, 1.0, [1e3, 1e6])[-1]
        assert abs(row["ak_dev"]) <= 4.0 * np.finfo(float).eps * row["ak_target"]

    def test_decreasing_T_rejected(self, pm_atom):
        with pytest.raises(ValueError):
            ak_convergence_report(pm_atom, 1.0, [10.0, 5.0])

    def test_constant_term_and_truncation_bound(self, pm_atom):
        # T ak_dev = B + O(e^{-2bT}) for the atom, which has no truncation
        rows = ak_convergence_report(pm_atom, 1.0, [20.0, 40.0])
        for r in rows:
            assert r["ak_B"] == pytest.approx(math.log(9.0 / 8.0), rel=1e-13)
            assert r["T"] * r["ak_dev"] == pytest.approx(r["ak_B"], abs=1e-9)
            assert r["disc_err"] == 0.0 and r["n"] == 1
        gauss4 = ak_convergence_report(RadialMeasure(4, GaussianProfile(2.0)), 0.7, [1e3])[0]
        assert gauss4["T"] * gauss4["ak_dev"] == pytest.approx(gauss4["ak_B"], rel=1e-3)
        assert 0.0 < gauss4["disc_err"] < 1e-5


@pytest.fixture(scope="module")
def atom_ladder(pm_atom):
    return ak_convergence_report(pm_atom, 1.0, REF_LADDER)


class TestNestedLadder:
    """A ladder's rows are the closed forms at each horizon."""

    def test_atom_rungs_meet_closed_form(self, atom_ladder):
        for row in atom_ladder:
            exact = atom_logdet_exact(1.0, 3.0, 1.0, row["T"])
            assert abs(row["logdet_per_T"] - exact / row["T"]) <= 2.2e-4
            assert row["logdet_per_T"] == pytest.approx(exact / row["T"], rel=1e-12)

    def test_rows_equal_independent_rungs(self, pm_atom, atom_ladder):
        for row in atom_ladder:
            assert row["n"] == 1
            assert row["logdet_per_T"] == log_det(pm_atom, 1.0, row["T"]) / row["T"]
            assert row["mass_fn"] == mass_functional(pm_atom, 1.0, row["T"])
