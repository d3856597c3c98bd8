import math
import re
import sys

import pytest

from pfwcl.errors import MeasureError
from pfwcl.formfactor import (GaussianProfile, PointMasses, RadialMeasure, SharpCutoff,
                              Tabulated, measure_from_json, measure_to_json, moment,
                              moment_report)


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


#: the radial integral int_0^inf phi(r)^2 r^(d+s-1) dr of each profile at scale 1
UNIT_MOMENTS = {SharpCutoff: lambda d, s: 1.0 / (d + s),
                GaussianProfile: lambda d, s: 0.5 * math.gamma((d + s) / 2)}


class TestMoments:
    def test_sharp_cutoff_d3_examples(self, cutoff1):
        assert moment(cutoff1, -2) == pytest.approx(4 * math.pi, rel=1e-12)
        assert moment(cutoff1, -3) == math.inf
        assert moment(cutoff1, -1) == pytest.approx(2 * math.pi, rel=1e-12)
        assert moment(cutoff1, 1) == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("s", [-3, -2, -1, 1])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 7.0, 1e4])
    def test_sharp_cutoff_closed_form(self, d, s, lam):
        # S_{d-1} Lambda^{s+d} / (s+d) when s+d > 0, divergent otherwise
        ff = RadialMeasure(d, SharpCutoff(lam))
        if s + d <= 0:
            assert moment(ff, s) == math.inf
            return
        expected = sphere_area(d) * lam ** (s + d) / (s + d)
        assert moment(ff, s) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_closed_form(self, gauss1):
        # S_2 * (1/2) sigma^{s+3} Gamma((s+3)/2)
        for s in (1, -1, -2):
            expected = 4 * math.pi * 0.5 * math.gamma((s + 3) / 2)
            assert moment(gauss1, s) == pytest.approx(expected, rel=1e-11)

    def test_point_mass_single_atom(self):
        ff = RadialMeasure(3, PointMasses([(1.0, 3.0)]))
        assert moment(ff, -2) == 3.0
        assert moment(ff, -3) == 3.0
        ff2 = RadialMeasure(3, PointMasses([(2.0, 5.0)]))
        assert moment(ff2, -2) == pytest.approx(5.0 / 4.0, rel=1e-15)

    def test_invalid_order_rejected(self, pm_atom):
        with pytest.raises(ValueError):
            moment(pm_atom, 0)
        with pytest.raises(ValueError):
            moment(pm_atom, -4)


class TestMomentReport:
    def test_cutoff_report(self, cutoff1):
        rep = moment_report(cutoff1)
        assert rep.delta_m == pytest.approx(8 * math.pi / 3, rel=1e-11)
        assert rep.m_eff == pytest.approx(1 + 8 * math.pi / 3, rel=1e-11)
        assert rep.ir_regular is False

    def test_atom_report(self, pm_atom):
        rep = moment_report(pm_atom)
        assert rep.delta_m == 3.0
        assert rep.m_eff == 4.0
        assert rep.ir_regular is True

    def test_gaussian_d3_is_infrared_singular(self, gauss1):
        # int |phi|^2/omega^3 ~ int_0 r^{-1} e^{-r^2} dr diverges at the
        # origin whenever phi(0) != 0, so the d=3 gaussian is IR-singular.
        rep = moment_report(gauss1)
        assert rep.m_minus3 == math.inf
        assert rep.ir_regular is False

    def test_gaussian_d4_is_infrared_regular(self):
        ff = RadialMeasure(4, GaussianProfile(1.0))
        rep = moment_report(ff)
        assert math.isfinite(rep.m_minus3)
        assert rep.ir_regular is True

    def test_zero_weights_skip_overflowing_powers(self):
        # phi = 0 on [0, 1e-80], then phi(r) = r to rounding: the graded origin
        # panels put zero weights on nodes near 1e-104, where r^-3 overflows;
        # M_{-3} = 4 pi int phi^2 / r dr = 2 pi is finite
        report = moment_report(RadialMeasure(3, Tabulated([(0.0, 0.0), (1e-80, 0.0),
                                                           (1.0, 1.0)])))
        assert report.m_minus3 == pytest.approx(2.0 * math.pi, rel=1e-10)
        assert report.ir_regular

    def test_m_eff_one_iff_null(self):
        null = RadialMeasure(3, PointMasses([]))
        assert moment_report(null).m_eff == 1.0
        assert not null.rule()[1].any()
        assert moment_report(RadialMeasure(3, PointMasses([(2.0, 0.1)]))).m_eff > 1.0

    def test_weight_scaling_exact(self):
        # doubling every weight doubles delta_m exactly (dyadic factor)
        atoms = [(1.0, 3.0), (2.5, 0.7)]
        doubled = [(w, 2 * W) for w, W in atoms]
        d1 = moment_report(RadialMeasure(3, PointMasses(atoms))).delta_m
        d2 = moment_report(RadialMeasure(3, PointMasses(doubled))).delta_m
        assert d2 == 2.0 * d1

    def test_spike_matches_atom(self):
        # a narrow triangular spike carrying the same pf-weighted mass as the
        # atom (omega=1, W=3) reproduces delta_m to quadrature accuracy
        omega, W, eps = 1.0, 3.0, 1e-3
        pf = 2.0 / 3.0
        height = math.sqrt(W / (pf * 4 * math.pi * (2 * eps / 3) * omega**2))
        spike = RadialMeasure(3, Tabulated(
            [(omega - eps, 0.0), (omega, height), (omega + eps, 0.0)]))
        got = moment_report(spike).delta_m
        assert got == pytest.approx(W, rel=1e-5)


class TestValidation:
    def test_zero_profile_passes_with_zero_moments(self):
        ff = RadialMeasure(3, Tabulated([(0.5, 0.0), (1.0, 0.0), (2.0, 0.0)]))
        assert all(moment(ff, s) == 0.0 for s in (1, -1, -2))

    def test_decreasing_radii_is_construction_error(self):
        with pytest.raises(MeasureError):
            Tabulated([(1.0, 1.0), (0.5, 1.0)])

    def test_d2_cutoff_fails_named_condition(self):
        with pytest.raises(MeasureError, match="phi/omega not square-integrable"):
            RadialMeasure(2, SharpCutoff(1.0))

    def test_nonpositive_atom_rejected(self):
        with pytest.raises(MeasureError):
            PointMasses([(0.0, 1.0)])
        with pytest.raises(MeasureError):
            PointMasses([(1.0, -1.0)])

    @pytest.mark.parametrize("profile, orders", [
        (PointMasses([(1e-200, 1.0)]), [-2]),
        (Tabulated([(0.0, 1e200), (1.0, 0.0)]), [1, -1, -2]),
        (Tabulated([(0.0, 1.0), (1e200, 1.0)]), [1, -1, -2]),
        (PointMasses([(1.0, 1e308), (1.0, 1e308)]), [1, -1, -2]),
    ], ids=["atom_m_minus2", "tabulated_value", "tabulated_radius", "fsum_overflow"])
    def test_overflow_is_measure_error(self, profile, orders):
        # the rule runs on Python floats, whose ** and fsum raise OverflowError
        # (and 0.0 ** -n ZeroDivisionError) where numpy gave inf: each must
        # still be the MeasureError of a non-finite moment, not a numerical failure
        with pytest.raises(MeasureError, match=re.escape(
                f"profile moments M_s, s in {orders}, must be finite, but they overflow "
                "a double on the radial rule")):
            RadialMeasure(3, profile)

    @pytest.mark.parametrize("make, message", [
        (lambda: SharpCutoff(1e-300), "profile.lambda must be >="),
        (lambda: GaussianProfile(1e-300), "profile.sigma must be >="),
        (lambda: Tabulated([(0.0, 1.0), (1e-300, 1.0), (1.0, 0.0)]),
         "profile.points[1] radius must be >="),
    ], ids=["sharp", "gaussian", "tabulated"])
    def test_underflowing_origin_panel_is_measure_error(self, make, message):
        # the innermost edge b 4^-40 of a first edge b = 1e-300 underflows to 0
        with pytest.raises(MeasureError, match=re.escape(message)):
            make()

    def test_overflowing_radius_ratio_is_measure_error(self):
        # b / a of the panel count overflows a double for a = 1e-320, b = 1
        with pytest.raises(MeasureError, match=re.escape("profile.points radii overflow r_(i+1) / r_i")):
            Tabulated([(1e-320, 1.0), (1.0, 0.0)])

    @pytest.mark.parametrize("make, field", [(SharpCutoff, "profile.lambda"),
                                             (GaussianProfile, "profile.sigma")],
                             ids=["sharp", "gaussian"])
    def test_smallest_scale_keeps_its_moments(self, make, field):
        # in d = 3 the smallest accepted scale lies between 1e-73 and 1e-72
        # (4.2e-73 sharp, 3.6e-73 gaussian): there the rule's standing moments
        # are still right to rounding, below it underflow could hide more than eps
        ff = RadialMeasure(3, make(1e-72))
        for s in (1, -1, -2):
            expected = sphere_area(3) * UNIT_MOMENTS[make](3, s) * 1e-72 ** (3 + s)
            assert moment(ff, s) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(MeasureError, match=re.escape(f"{field} = 1e-73 is too small")):
            RadialMeasure(3, make(1e-73))

    @pytest.mark.parametrize("make", [SharpCutoff, GaussianProfile], ids=["sharp", "gaussian"])
    def test_d20_unit_scale_keeps_its_moments(self, make):
        # the innermost weights, about r^19, underflow to 0, but what they
        # could have carried is far below eps of every standing moment
        ff = RadialMeasure(20, make(1.0))
        assert min(ff.rule()[1]) < sys.float_info.min
        for s in (1, -1, -2):
            assert moment(ff, s) == pytest.approx(
                sphere_area(20) * UNIT_MOMENTS[make](20, s), rel=1e-14)

    def test_bad_dimension_rejected(self):
        with pytest.raises(MeasureError):
            RadialMeasure(1, SharpCutoff(1.0))


class TestJson:
    @pytest.mark.parametrize("profile", [
        SharpCutoff(1.5),
        GaussianProfile(0.7),
        PointMasses([(1.0, 3.0), (2.0, 0.5)]),
        Tabulated([(0.1, 0.3), (0.9, 1.0), (2.0, 0.0)]),
    ])
    def test_round_trip(self, profile):
        ff = RadialMeasure(3, profile)
        again = measure_from_json(measure_to_json(ff))
        assert again == ff

    def test_documented_example(self):
        ff = measure_from_json({"dimension": 3,
                                "profile": {"type": "sharp", "lambda": 1.0}})
        assert ff.profile == SharpCutoff(1.0)
        assert ff.polarization_factor == pytest.approx(2.0 / 3.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(MeasureError):
            measure_from_json({"dimension": 3,
                               "profile": {"type": "sharp", "lambda": 1.0},
                               "extra": True})
        with pytest.raises(MeasureError):
            measure_from_json({"dimension": 3,
                               "profile": {"type": "sharp", "lam": 1.0}})
        with pytest.raises(MeasureError):
            measure_from_json({"dimension": 3,
                               "profile": {"type": "lorentzian", "gamma": 1.0}})
