import math
import random

import numpy as np
import pytest
from scipy import integrate, special

from pfwcl import energy
from pfwcl.cutoff import cutoff_energy_3d, cutoff_split_I1_I2
from pfwcl.energy import (EnergyResult, G_function, SpectralFunctions, dipole_dispersion,
                          dispersion_parts, ground_energy, log_spectral_energy)
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,
                              SharpCutoff, moment_report)
from pfwcl.quadrature import adaptive_quad

NULL = RadialMeasure(3, PointMasses([]))


class TestSpectralFunctions:
    def test_rho_atom_values(self, pm_atom):
        sf = SpectralFunctions(pm_atom, kappa=1.0)
        assert sf.rho(0.0) == pytest.approx(1.5, abs=0)
        assert sf.rho(2.0) == pytest.approx(1.5 * math.exp(-2.0), rel=1e-15)
        assert sf.rho(-2.0) == sf.rho(2.0)

    def test_rho_cutoff_at_zero(self, cutoff1):
        # pf * M_{-1} / 2 = (2/3) * 2 pi / 2
        sf = SpectralFunctions(cutoff1, kappa=1.0)
        assert sf.rho(0.0) == pytest.approx(2 * math.pi / 3, rel=1e-11)

    def test_rho_hat_atom_values(self, pm_atom):
        sf = SpectralFunctions(pm_atom, kappa=1.0)
        assert sf.rho_hat(0.0) == pytest.approx(3.0, abs=0)
        assert sf.rho_hat(1.0) == pytest.approx(1.5, rel=1e-15)
        assert sf.rho_hat(-1.0) == sf.rho_hat(1.0)

    def test_rho_hat_cutoff_closed_form(self, cutoff1):
        # analytic radial integral:
        # (8 pi / 3) [Lam - (t/k^2) arctan(k^2 Lam / t)] / k^2
        for kap in (1.0, 2.0):
            sf = SpectralFunctions(cutoff1, kappa=kap)
            for t in (0.3, 1.0, 4.0):
                expected = (8 * math.pi / 3) * (
                    1.0 - (t / kap**2) * math.atan(kap**2 / t)) / kap**2
                assert sf.rho_hat(t) == pytest.approx(expected, rel=1e-11)

    def test_rho_hat_atom_is_fourier_transform_of_rho(self, pm_atom):
        # rho(s) = 1.5 e^{-|s|}: int_R rho(s) e^{-its} ds = 3/(1+t^2)
        sf = SpectralFunctions(pm_atom, kappa=1.0)
        for t in (0.5, 2.0):
            ref, _ = integrate.quad(lambda s: sf.rho(s) * math.cos(t * s),
                                    0, 60.0, epsabs=1e-13, limit=400)
            assert sf.rho_hat(t) == pytest.approx(2 * ref, rel=1e-10)

    def test_kappa_scaling_spot_value(self, pm_atom):
        sf1 = SpectralFunctions(pm_atom, kappa=1.0)
        sf3 = SpectralFunctions(pm_atom, kappa=3.0)
        assert 9.0 * sf3.rho_hat(9.0 * 0.7) == pytest.approx(sf1.rho_hat(0.7), rel=1e-14)

    def test_nonnegative_on_grid(self, gauss1):
        sf = SpectralFunctions(gauss1, kappa=2.0)
        for t in (0.0, 0.3, 1.7, 11.0):
            assert sf.rho(t) >= 0.0
            assert sf.rho_hat(t) >= 0.0


class TestGFunction:
    def test_zero_at_origin(self, pm_atom, cutoff1):
        assert G_function(pm_atom, 0.0) == 0.0
        assert G_function(cutoff1, 0.0) == 0.0

    def test_atom_value(self, pm_atom):
        assert G_function(pm_atom, 1.0) == pytest.approx(0.3, rel=1e-15)

    def test_null_measure(self):
        assert G_function(NULL, 2.0) == 0.0

    def test_even_and_nonnegative(self, gauss1):
        for t in (0.25, 1.0, 4.0):
            g = G_function(gauss1, t)
            assert g >= 0.0
            assert G_function(gauss1, -t) == g

    @pytest.mark.parametrize("ff_name", ["pm_atom", "cutoff1", "gauss1"])
    def test_pointwise_bounds(self, ff_name, request):
        # ||t phi/(t^2+w^2)||^2 <= M_{-2}/4 and ||phi/sqrt(t^2+w^2)||^2 <= M_{-2}
        # (polarization-dressed on both sides)
        ff = request.getfixturevalue(ff_name)
        m2 = moment_report(ff).delta_m  # pf * M_{-2}
        for t in (0.1, 1.0, 3.0, 20.0):
            num, den = dispersion_parts(ff, t)
            assert num <= 0.25 * m2 * (1 + 1e-12)
            assert den <= m2 * (1 + 1e-12)


class TestGroundEnergy:
    def test_atom_half(self, pm_atom):
        res = ground_energy(pm_atom)
        # oscillator oracle (sqrt(omega^2+W) - omega)/2 = 1/2; independently
        # (1/pi) int_0^inf 3t^2/((t^2+1)(t^2+4)) dt = 1/2
        assert res.calE == pytest.approx(0.5, rel=1e-12)
        assert res.log_spectral == pytest.approx(1.0, rel=1e-12)
        assert abs(res.log_spectral - 2.0 * res.calE) <= res.estimated_abs_error

    def test_null_measure_zero(self):
        assert ground_energy(NULL).calE == 0.0

    def test_cutoff_matches_u_integral_pipeline(self, cutoff1):
        res = ground_energy(cutoff1)
        assert res.calE == pytest.approx(cutoff_energy_3d(1.0), rel=1e-6)

    def test_identity_on_standard_profiles(self, pm_atom, cutoff1, gauss1):
        for ff in (pm_atom, cutoff1, gauss1):
            d_eff = 1 if ff.is_discrete else 3
            res = ground_energy(ff)
            lhs = res.log_spectral
            rhs = (2.0 / d_eff) * res.calE
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestLogSpectral:
    def test_atom_classical_integral(self, pm_atom):
        # (1/2pi) int log((t^2+4)/(t^2+1)) dt = sqrt(4) - sqrt(1) = 1
        assert log_spectral_energy(pm_atom, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_null_measure(self):
        assert log_spectral_energy(NULL, 2.0) == 0.0

    def test_kappa_squared_scaling(self, pm_atom, cutoff1, gauss1):
        # the change of variables t -> kappa^2 t, against the integrand at kappa
        for ff in (pm_atom, cutoff1, gauss1):
            base = log_spectral_energy(ff, 1.0)
            for kappa in (2.0, 3.0):
                sf = SpectralFunctions(ff, kappa=kappa)
                half, _ = adaptive_quad(
                    lambda ts: [math.log1p(kappa**2 * v) for v in sf.rho_hat(ts)],
                    0.0, math.inf, abs_tol=1e-14)
                assert half / math.pi == pytest.approx(kappa**2 * base, rel=1e-10)

    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e20, 1e100])
    def test_large_kappa_from_the_unit_integral(self, pm_atom, cutoff1, gauss1, kappa):
        # the integrand at kappa itself spreads out to t ~ kappa^2: integrated
        # there it was off by 5e-11 at 1e3, failed at 1e6 and read 0 beyond
        for ff in (pm_atom, cutoff1, gauss1):
            unit = ground_energy(ff).log_spectral
            assert log_spectral_energy(ff, kappa) == pytest.approx(
                kappa**2 * unit, rel=1e-15, abs=0)

    def test_log_bound_pointwise(self, cutoff1):
        sf = SpectralFunctions(cutoff1, kappa=2.0)
        for t in (0.0, 0.5, 2.0, 9.0):
            rh = sf.rho_hat(t)
            assert math.log1p(4.0 * rh) <= 4.0 * rh

    def test_gaussian_against_external_oracle(self, gauss1):
        # closed-form radial integral via erfcx, integrated by QUADPACK
        def rho_hat_closed(t):
            b = abs(t)
            inner = 0.5 * math.sqrt(math.pi)
            if b > 0:
                inner -= b * (math.pi / 2) * special.erfcx(b)
            return (2.0 / 3.0) * 4 * math.pi * inner

        ref, _ = integrate.quad(lambda t: math.log1p(rho_hat_closed(t)),
                                0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
        ref /= math.pi
        assert log_spectral_energy(gauss1, 1.0) == pytest.approx(ref, rel=1e-9)


class TestOtherMeasures:
    def test_tabulated_bump_identity(self):
        from pfwcl.formfactor import Tabulated
        tab = RadialMeasure(3, Tabulated([(0.5, 0.0), (1.0, 1.0), (1.5, 0.0)]))
        res = ground_energy(tab)
        assert res.calE > 0
        assert abs(res.log_spectral - (2.0 / 3.0) * res.calE) <= 1e-10

    def test_dimension_four_gaussian(self):
        g4 = RadialMeasure(4, GaussianProfile(1.0))
        res = ground_energy(g4)
        assert abs(res.log_spectral - 0.5 * res.calE) <= 1e-9
        base = log_spectral_energy(g4, 1.0)
        assert log_spectral_energy(g4, 2.0) == pytest.approx(4 * base, rel=1e-10)


# calE of each measure's own radial rule at 30 digits, from
#
#     def rule_calE(ff):            # about 30 s per measure
#         with mpmath.workdps(30):
#             r, w = ff._float_rule
#             r2, W = [mpmath.mpf(x) ** 2 for x in r], [mpmath.mpf(x) for x in w]
#
#             def G(t):
#                 q = [b / (a + t * t) for a, b in zip(r2, W)]
#                 return (t * t * mpmath.fsum(x / (a + t * t) for x, a in zip(q, r2))
#                         / (1 + mpmath.fsum(q)))
#
#             points = ([0] + [mpmath.mpf(max(r)) * mpmath.mpf(10) ** k for k in range(-6, 4)]
#                       + [mpmath.inf])
#             return ff.dimension / mpmath.pi * mpmath.quad(G, points)
RULE_CALE = {
    ("sharp", 4, 1e4): 384749436.95862755103,
    ("sharp", 3, 1e5): 79160064.163532236503,
    ("sharp", 4, 1e3): 3846098.5933477369604,
    ("sharp", 4, 1e-3): 4.9347937341434213388e-9,
    ("gaussian", 3, 1e3): 89885.944014218887143,
    ("gaussian", 4, 1e-3): 6.5600213153169626574e-9,
}


class TestOwnScale:
    @pytest.mark.parametrize("kind, d, scale", list(RULE_CALE),
                             ids=lambda v: f"{v:g}" if isinstance(v, float) else str(v))
    def test_estimate_bounds_error_against_rule_value(self, kind, d, scale):
        # integrated in t itself instead, d = 4 lambda = 1e4 exhausts the
        # panel budget, and d = 4 lambda = 1e3 errs by 2.7e-4 against an
        # estimate of 6.4e-5 (d = 3 lambda = 1e5: 0.16 against 0.054)
        profile = SharpCutoff(scale) if kind == "sharp" else GaussianProfile(scale)
        res = ground_energy(RadialMeasure(d, profile))
        ref = RULE_CALE[kind, d, scale]
        assert abs(res.calE - ref) <= res.estimated_abs_error
        assert abs(res.log_spectral - 2.0 / d * ref) <= res.estimated_abs_error

    @pytest.mark.parametrize("k", [-20, -7, -1, 1, 5, 20])
    def test_power_of_two_scaling_is_exact(self, k):
        # atoms (2^k omega, 4^k W) move the own scale by exactly 2^k, so the
        # quadratures see the same floats and every output scales by 2^k
        rng = random.Random(k)
        for _ in range(40):
            atoms = [(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3))
                     for _ in range(rng.randint(1, 4))]
            base = ground_energy(RadialMeasure(3, PointMasses(atoms)))
            scaled = ground_energy(RadialMeasure(3, PointMasses(
                [(math.ldexp(omega, k), math.ldexp(w, 2 * k)) for omega, w in atoms])))
            assert scaled == EnergyResult(math.ldexp(base.calE, k),
                                          math.ldexp(base.log_spectral, k),
                                          math.ldexp(base.estimated_abs_error, k))


def spy_kept(monkeypatch) -> list:
    """[(rule size, kept size)] of every ``energy._kept`` call from here on."""
    calls = []

    def spy(rule, s2, power):
        kept = real(rule, s2, power)
        calls.append((len(rule[1]), len(kept[0])))
        return kept

    real = energy._kept
    monkeypatch.setattr(energy, "_kept", spy)
    return calls


class TestCut:
    @pytest.mark.parametrize("kind, d, scale", list(RULE_CALE),
                             ids=lambda v: f"{v:g}" if isinstance(v, float) else str(v))
    def test_dropped_nodes_move_each_sum_by_at_most_the_unit_roundoff(self, kind, d, scale):
        # sum q = sum w/(r^2+s^2) (power 1) and s^2 sum q/(r^2+s^2) (power 2),
        # each summed exactly from the kernel's float terms: what the cut drops
        # is at most 2^-53 of what it keeps, so trimmed and full agree to 2^-52
        profile = SharpCutoff(scale) if kind == "sharp" else GaussianProfile(scale)
        rule = energy._own_rule(RadialMeasure(d, profile))
        _, r2, w, _ = rule
        rng = random.Random(f"{kind}{d}{scale}")
        dropped_any = False
        for _ in range(300):
            s2 = 10.0 ** rng.uniform(-12.0, 12.0)
            q = [wk / (rk + s2) for rk, wk in zip(r2, w)]
            for power, terms in ((1, q), (2, [s2 * qk / (rk + s2) for qk, rk in zip(q, r2)])):
                j = len(r2) - len(energy._kept(rule, s2, power)[0])
                full, kept, dropped = (math.fsum(terms), math.fsum(terms[j:]),
                                       math.fsum(terms[:j]))
                assert dropped <= 2.0 ** -53 * kept * (1.0 + 1e-12)
                assert abs(full - kept) <= 2.0 ** -52 * full
                dropped_any |= j > 0
        assert dropped_any

    def test_ground_energy_sums_under_30_percent_of_the_rule(self, monkeypatch):
        # sharp d = 3, lambda = 1: most of the 820 nodes are the origin grading,
        # which the cut drops at every quadrature point but the smallest s
        calls = spy_kept(monkeypatch)
        ground_energy(RadialMeasure(3, SharpCutoff(1.0)))
        assert sum(kept for _, kept in calls) <= 0.3 * sum(size for size, _ in calls)
        assert {size for size, _ in calls} == {820}

    @pytest.mark.parametrize("k", [-20, -7, 5, 20])
    def test_power_of_two_scaling_is_exact_where_the_cut_drops_atoms(self, k, monkeypatch):
        # atoms at 1e-3 and 1e-2 of the frequencies with 1e-24 of the weight add
        # less than 2^-53 of the sums at most s; the cut sees the same floats
        # at 2^k omega, so it keeps the same atoms and the outputs scale by 2^k
        calls = spy_kept(monkeypatch)
        rng = random.Random(k)
        for _ in range(10):
            atoms = [(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3))
                     for _ in range(rng.randint(1, 3))]
            atoms += [(omega * f, w * 1e-24) for omega, w in atoms for f in (1e-3, 1e-2)]
            base = ground_energy(RadialMeasure(3, PointMasses(atoms)))
            scaled = ground_energy(RadialMeasure(3, PointMasses(
                [(math.ldexp(omega, k), math.ldexp(w, 2 * k)) for omega, w in atoms])))
            assert scaled == EnergyResult(math.ldexp(base.calE, k),
                                          math.ldexp(base.log_spectral, k),
                                          math.ldexp(base.estimated_abs_error, k))
        assert any(kept < size for size, kept in calls)


class TestDipoleDispersion:
    def test_atom_values(self, pm_atom):
        assert dipole_dispersion(pm_atom, 1.0, 0.0) == pytest.approx(0.5, rel=1e-12)
        assert dipole_dispersion(pm_atom, 2.0, 2.0) == pytest.approx(2.5, rel=1e-12)

    def test_mass_term_persists_at_kappa_zero(self, pm_atom):
        # p^2/(2 m_eff), NOT p^2/2
        assert dipole_dispersion(pm_atom, 0.0, 2.0) == pytest.approx(0.5, rel=1e-12)


class TestCutoffAsymptotics:
    def test_small_lambda_limit(self):
        # E(L)/L^2 -> 4 int (arctan u - u/(1+u^2))/u^3 du = pi
        assert cutoff_energy_3d(1e-6) / 1e-12 == pytest.approx(math.pi, rel=1e-4)

    def test_large_lambda_bracket(self):
        ratio = cutoff_energy_3d(1e6) / 1e6**1.5
        assert math.sqrt(2 * math.pi / 3) <= ratio <= math.sqrt(2 * math.pi)

    def test_split_additivity(self):
        lam = 1e4
        i1, i2 = cutoff_split_I1_I2(lam)
        assert i1 > 0 and i2 > 0
        assert i1 + i2 == pytest.approx(cutoff_energy_3d(lam) / (4 * lam), rel=1e-9)

    def test_tail_piece_vanishes_on_ladder(self):
        vals = [cutoff_split_I1_I2(lam)[1] / math.sqrt(lam)
                for lam in (1e2, 1e4, 1e6)]
        assert vals[0] > vals[1] > vals[2]

    def test_split_positive_at_hundred(self):
        i1, i2 = cutoff_split_I1_I2(1e2)
        assert i1 > 0 and i2 > 0

    def test_series_switch_continuity(self):
        # the series / direct switchover at u = 1e-3 must be seamless
        from pfwcl.cutoff import _arctan_minus_rational, _u_minus_arctan
        for u in (0.999e-3, 1.001e-3):
            exact_num = math.atan(u) - u / (1 + u * u)
            exact_den = u - math.atan(u)
            assert _arctan_minus_rational(u) == pytest.approx(exact_num, rel=1e-10)
            assert _u_minus_arctan(u) == pytest.approx(exact_den, rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cutoff_energy_3d(0.0)
        with pytest.raises(ValueError):
            cutoff_split_I1_I2(1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                cutoff_energy_3d(lam)
            with pytest.raises(ValueError, match="finite"):
                cutoff_split_I1_I2(lam)

    @pytest.mark.parametrize("lam", [1e-2, 1.0, 1e2, 1e6])
    def test_against_mpmath_quad(self, lam):
        # the same u-integrand at 30 digits, its small-u cancellation summed as a series
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        with mp.workdps(30):
            c = 8 * mp.pi / 3 * lam

            def g(u):
                if u < mp.mpf("0.01"):   # numerator and denominator divided by u^3
                    terms = range(1, 30)
                    num = mp.fsum((-1) ** (j + 1) * mp.mpf(2 * j) / (2 * j + 1) * u ** (2 * j - 2)
                                  for j in terms)
                    rest = mp.fsum((-1) ** (j + 1) * u ** (2 * j) / (2 * j + 1) for j in terms)
                    return num / (1 + c * rest)
                return (mp.atan(u) - u / (1 + u * u)) / ((u + c * (u - mp.atan(u))) * u * u)

            split = mp.mpf(lam ** -0.25)
            points = sorted({mp.mpf(0), mp.mpf(lam) ** -0.5, split, mp.mpf(1)})
            i1 = lam * mp.quad(g, [x for x in points if x <= split])
            i2 = lam * mp.quad(g, [x for x in points if x >= split] + [mp.inf])
            energy = float(4 * lam * (i1 + i2))
            i1, i2 = float(i1), float(i2)
        assert cutoff_energy_3d(lam) == pytest.approx(energy, rel=1e-10, abs=0)
        if lam > 1.0:
            assert cutoff_split_I1_I2(lam) == pytest.approx((i1, i2), rel=1e-10, abs=0)
