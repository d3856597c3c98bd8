import math

import numpy as np
import pytest
from scipy import integrate, special

from pfwcl.cutoff import cutoff_energy_3d, cutoff_split_I1_I2
from pfwcl.energy import (G_function, SpectralFunctions, dipole_dispersion,
                          dispersion_parts, ground_energy, log_spectral_energy)
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure,
                              moment_report)
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
                half, _ = adaptive_quad(lambda ts: np.log1p(kappa**2 * sf.rho_hat(ts)),
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
