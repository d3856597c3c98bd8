import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from pfwcl import hermite as hermite_module
from pfwcl.hermite import (_normalized, bound_check, generating_function_residual,
                           generating_operator_residual, hermite,
                           hermite_explicit)


class TestEvaluation:
    def test_degree_zero_is_one(self):
        for a in (0.25, 1.0, 10.0):
            for x in (-3.0, 0.0, 5.5):
                assert hermite(0, a, x) == 1.0

    def test_classical_h2(self):
        for x in (-2.0, 0.0, 0.3, 4.0):
            assert hermite(2, 1.0, x) == pytest.approx(4 * x * x - 2, rel=1e-14)

    def test_matches_scipy_at_a_one(self):
        for n in (1, 3, 7, 15):
            for x in (-2.5, 0.4, 3.0):
                assert hermite(n, 1.0, x) == pytest.approx(
                    float(special.eval_hermite(n, x)), rel=1e-11)

    def test_scaling_relation(self):
        # H_n(a, x) = a^{n/2} H_n(1, sqrt(a) x)
        for n in (3, 10, 25):
            for a in (0.5, 2.0, 7.0):
                for x in (-1.2, 0.5, 3.0):
                    lhs = hermite(n, a, x)
                    rhs = a ** (n / 2) * hermite(n, 1.0, math.sqrt(a) * x)
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_example_h3(self):
        assert hermite(3, 2.0, 0.5) == pytest.approx(-16.0, rel=1e-13)
        assert hermite(3, 2.0, 0.5) == pytest.approx(
            2.0**1.5 * hermite(3, 1.0, math.sqrt(2.0) * 0.5), rel=1e-13)

    def test_recurrence_vs_explicit_on_working_box(self):
        for n in (0, 1, 2, 9, 21, 34, 47, 60):
            for a in (0.25, 1.0, 2.5, 10.0):
                for x in np.linspace(-10.0, 10.0, 21):
                    r = hermite(n, a, float(x))
                    e = hermite_explicit(n, a, float(x))
                    assert abs(r - e) <= 1e-12 * max(abs(r), abs(e), 1.0)

    def test_derivative_relation_by_finite_differences(self):
        # H_n(a, x) = (-1)^n e^{a x^2} (d/dx)^n e^{-a x^2}, n <= 4,
        # with the nth derivative from the central binomial stencil
        a = 0.8
        h = 1e-2

        def nth_derivative(n, x):
            total = 0.0
            for k in range(n + 1):
                total += (-1) ** k * math.comb(n, k) * math.exp(
                    -a * (x + (n / 2 - k) * h) ** 2)
            return total / h**n

        for n in (1, 2, 3, 4):
            for x in (-1.0, 0.3, 1.7):
                approx = (-1) ** n * math.exp(a * x * x) * nth_derivative(n, x)
                assert approx == pytest.approx(hermite(n, a, x), abs=5e-3 * max(
                    1.0, abs(hermite(n, a, x))))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            hermite(900, 10.0, 10.0)

    def test_high_degree_values_are_correctly_rounded(self):
        # at a = b^2, H_n(a, x) = b^n H_n(1, b x): with b and x doubles (dyadic
        # rationals) the a = 1 recurrence in Fractions gives it exactly, and
        # float() rounds it correctly; a value past a double is refused
        for n in (60, 120, 250):
            for b in (0.5, 1.0, 1.5, 3.0):
                for x in (-7.25, -1.1, 0.3, 2.0, 6.875):
                    y, prev, cur = Fraction(b) * Fraction(x), Fraction(0), Fraction(1)
                    for k in range(n):
                        prev, cur = cur, 2 * y * cur - 2 * k * prev
                    try:
                        exact = float(Fraction(b) ** n * cur)
                    except OverflowError:
                        with pytest.raises(OverflowError):
                            hermite(n, b * b, x)
                        continue
                    assert hermite(n, b * b, x) == exact
                    assert hermite_explicit(n, b * b, x) == exact

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_normalized_matches_mpmath_at_high_degree(self, n):
        # psi_n = H_n(a, x) / (a^{n/2} sqrt(2^n n!)) = H_n(1, sqrt(a) x) / sqrt(2^n n!);
        # the unnormalized H_n/n! underflows to 0 at n = 400
        mpmath = pytest.importorskip("mpmath")
        for a in (0.5, 3.0):
            for x in (-4.1, -0.7, 0.0, 0.3, 2.6, 5.0):
                value = _normalized(a, x, n)[n]
                with mpmath.workdps(30):
                    exact = float(mpmath.hermite(n, mpmath.sqrt(a) * x)
                                  / mpmath.sqrt(2**n * mpmath.factorial(n)))
                assert abs(value - exact) <= 1e-10 * math.exp(0.5 * a * x * x)


class TestGeneratingFunction:
    def test_documented_point(self):
        assert generating_function_residual(0.5, 0.3, 0.7, 60) <= 1e-12

    def test_t_zero_exact(self):
        assert generating_function_residual(3.0, -1.2, 0.0, 5) == 0.0

    def test_x_zero_limit(self):
        # closed form e^{-a t^2} = e^{-1}
        assert generating_function_residual(1.0, 0.0, 1.0, 60) <= 1e-12

    def test_residual_decreases_past_turning_point(self):
        a, x, t = 1.0, 0.7, 1.1
        res = [generating_function_residual(a, x, t, N) for N in (8, 16, 32, 64)]
        assert res[0] > res[-1]
        assert res[-1] <= 1e-12


class TestBound:
    def test_degree_zero(self):
        assert bound_check(0, 2.0, 1.5)

    def test_full_grid(self):
        xs = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        assert all(bound_check(n, a, float(x))
                   for n in range(41) for a in (0.25, 1.0, 4.0) for x in xs)

    def test_suite_grid_is_numpy_arange(self):
        # x_k = -5.0 + k * delta with delta = (-5.0 + 0.1) - (-5.0), as numpy
        # fills it; -5.0 + 0.1 * k differs in the last bit at 99 of the 101 points
        xs = [x for n, a, x, _ in hermite_module._bound_grid() if n == 0 and a == 0.25]
        assert xs == np.arange(-5.0, 5.0 + 1e-9, 0.1).tolist()
        assert sum(x != -5.0 + 0.1 * k for k, x in enumerate(xs)) == 99

    def test_suite_grid_agrees_with_bound_check(self):
        # one psi_0 .. psi_40 recurrence per (a, x) gives what bound_check's own
        # recurrence to degree n gives, at every (n, a, x) of the grid
        xs = np.arange(-5.0, 5.0 + 1e-9, 0.1).tolist()
        grid = list(hermite_module._bound_grid())
        assert sorted((n, a, x) for n, a, x, _ in grid) == sorted(
            itertools.product(range(41), (0.25, 1.0, 4.0), xs))
        assert all(ok == bound_check(n, a, x) for n, a, x, ok in grid)

    def test_zero_value_without_divide_warning(self):
        # H_1(a, 0) = H_3(a, 0) = 0, whose log is -inf: no warning, no math
        # domain error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bound_check(1, 1.0, 0.0)
            assert bound_check(3, 2.0, 0.0) and bound_check(3, 2.0, 1.0)

    def test_small_case_by_hand(self):
        # |H_1(1,1)| = 2 <= sqrt(2) e^{1/2} ~ 2.33
        assert bound_check(1, 1.0, 1.0)
        assert abs(hermite(1, 1.0, 1.0)) <= math.sqrt(2.0) * math.exp(0.5)


class TestGeneratingOperator:
    def test_zero_matrix(self):
        res = generating_operator_residual(np.zeros((4, 4)), 1.0, 0.5,
                                           np.ones(4), 3)
        assert res == 0.0

    def test_scalar_reduces_to_generating_function(self):
        lam = 1.3
        res = generating_operator_residual(np.array([[lam]]), 0.5, 0.3,
                                           np.array([1.0]), 80)
        assert res <= 1e-12

    def test_random_symmetric_eight_by_eight(self):
        rng = np.random.default_rng(20240517)
        raw = rng.standard_normal((8, 8))
        S = 0.5 * (raw + raw.T)
        S *= 2.0 / float(np.max(np.abs(np.linalg.eigvalsh(S))))
        phi = rng.standard_normal(8)
        assert generating_operator_residual(S, 0.25, 0.4, phi, 80) <= 1e-10

    def test_tail_envelope_bounds_residual(self):
        # a-priori tail: sum_{n>N} |H_n(a,x)| r^n / n! with the growth bound
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((6, 6))
        S = 0.5 * (raw + raw.T)
        S *= 1.5 / float(np.max(np.abs(np.linalg.eigvalsh(S))))
        phi = rng.standard_normal(6)
        a, x, N = 0.5, 0.2, 40
        r = float(np.max(np.abs(np.linalg.eigvalsh(S))))
        # log-space terms: a^{n/2} sqrt(2^n n!) e^{a x^2/2} r^n / n!
        tail = sum(
            math.exp(0.5 * n * math.log(a) + 0.5 * (n * math.log(2.0)
                     + math.lgamma(n + 1)) + 0.5 * a * x * x
                     + n * math.log(r) - math.lgamma(n + 1))
            for n in range(N + 1, N + 200))
        envelope = tail * float(np.linalg.norm(phi))
        assert generating_operator_residual(S, a, x, phi, N) <= envelope + 1e-12

    @staticmethod
    def seed_3_draws():
        """The S and phi that hermite-check draws for seed 3."""
        draw = random.Random(3).random
        raw = np.array([draw() - 0.5 for _ in range(64)]).reshape(8, 8)
        S = 0.5 * (raw + raw.T)
        values = np.linalg.eigvalsh(S)
        S *= 2.0 / max(-values[0], values[-1])
        return S, np.array([draw() - 0.5 for _ in range(8)])

    def test_asymmetry_within_the_check_stays_round_off(self):
        # 5e-13 added to S[0, 1]: S passes the 1e-12 symmetry check, and both
        # sides use its symmetric part, so the residual stays at round-off
        # (6.5e-16, 5.6e-16 unperturbed).  With the series on S and the target
        # on one triangle of it, it read 5.8e-14.
        S, phi = self.seed_3_draws()
        S[0, 1] += 5e-13
        assert generating_operator_residual(S, 0.25, 0.4, phi, 80) <= 2e-15

    def test_asymmetry_past_the_check_is_refused(self):
        # |S_ij - S_ji| <= 1e-12 max(1, max|S|), with no relative term: an
        # asymmetry of 1e-9 max|S| is refused, as is 1e-6 relative on a 2 x 2
        S, phi = self.seed_3_draws()
        S[0, 1] += 1e-9 * np.abs(S).max()
        with pytest.raises(ValueError, match="symmetric"):
            generating_operator_residual(S, 0.25, 0.4, phi, 80)
        with pytest.raises(ValueError, match="symmetric"):
            generating_operator_residual(0.5 * np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]),
                                         0.25, 0.4, [1.0, 0.0], 20)

    def test_lists_and_arrays_agree(self):
        # S and phi may be any (nested) sequences of floats
        S, phi = self.seed_3_draws()
        assert generating_operator_residual(S.tolist(), 0.25, 0.4, phi.tolist(), 80) == \
            generating_operator_residual(S, 0.25, 0.4, phi, 80)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generating_operator_residual(np.eye(3), 1.0, 0.0, np.ones(4), 5)
        with pytest.raises(ValueError):
            generating_operator_residual(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                         1.0, 0.0, np.ones(2), 5)
