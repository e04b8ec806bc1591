"""Quadrature, Carlson's R_F, root finding, and the depressed cubic."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sig4.numerics import (
    ConvergenceError,
    DomainError,
    Interval,
    carlson_rf,
    integrate,
    solve_depressed_cubic,
)

# Independent oracle for the singular trigonometric integral at
# alpha = arcsin(0.6): (pi/(2 sqrt2)) * 2F1(1/4,3/4;1;0.36), the series
# summed by explicit Pochhammer recurrence in reverse.  Frozen value below.


def _series_oracle(a, b, c, x, terms=40):
    out = []
    t = 1.0
    for n in range(terms):
        out.append(t)
        t *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * x
    return math.fsum(reversed(out))


TRIG_INTEGRAL_06 = 1.205528895587794  # (pi/(2 sqrt2)) * F(1/4,3/4;1;0.36)


def test_series_oracle_matches_frozen_value():
    value = math.pi / (2.0 * math.sqrt(2.0)) * _series_oracle(0.25, 0.75, 1.0, 0.36)
    assert abs(value - TRIG_INTEGRAL_06) < 1e-15


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, Interval(0.0, 1.0), 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        value = integrate(lambda x: x ** -0.5, Interval(0.0, 1.0), 1e-12)
        assert abs(value - 2.0) < 1e-10

    def test_singular_half_period_integrand(self):
        # integrand of the real half-period formula, singularity moved to 0
        alpha = math.asin(0.6)

        def f(t):
            return math.cos(0.5 * (alpha - t)) / math.sqrt(
                2.0 * math.sin(2.0 * alpha - t) * math.sin(t)
            )

        value = integrate(f, Interval(0.0, alpha), 1e-12)
        assert abs(value - TRIG_INTEGRAL_06) < 1e-10

    def test_smooth_oscillatory(self):
        value = integrate(math.sin, Interval(0.0, math.pi), 1e-12)
        assert abs(value - 2.0) < 1e-12

    def test_bad_tolerance_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, Interval(0.0, 1.0), 0.0)

    def test_nan_tolerance_rejected_before_any_evaluation(self):
        calls = []
        with pytest.raises(DomainError, match="tol must be positive"):
            integrate(calls.append, Interval(0.0, 1.0), math.nan)
        assert calls == []

    def test_nonconvergence_signalled(self):
        # genuinely divergent integrand: refinement never settles
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c1=st.floats(-3.0, 3.0),
        c2=st.floats(-3.0, 3.0),
    )
    def test_linearity_on_polynomials(self, a, b, c1, c2):
        tol = 1e-12
        iv = Interval(-1.0, 2.0)
        f = lambda x: c1 * x * x + 0.5 * x - 1.0
        g = lambda x: c2 * x ** 3 + x
        combined = integrate(lambda x: a * f(x) + b * g(x), iv, tol)
        split = a * integrate(f, iv, tol) + b * integrate(g, iv, tol)
        assert abs(combined - split) <= 2.0 * tol * (1.0 + abs(a) + abs(b))


class TestCarlsonRF:
    def test_against_mpmath(self):
        # arguments over 15 decades, every third set with one zero
        rng = random.Random(5)
        with mpmath.workdps(40):
            for i in range(300):
                args = [10.0 ** rng.uniform(-12.0, 3.0) for _ in range(3)]
                if i % 3 == 0:
                    args[i % 9 // 3] = 0.0
                ref = mpmath.elliprf(*(mpmath.mpf(v) for v in args))
                assert abs(carlson_rf(*args) - ref) <= 1e-15 * ref, args

    def test_closed_values(self):
        # R_F(x, x, x) = x^(-1/2) and R_F(0, 1, 1) = K(0) = pi/2
        assert carlson_rf(4.0, 4.0, 4.0) == 0.5
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(0.5 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, math.nan, 1.0),
                                      (1.0, 1.0, math.inf)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            carlson_rf(*args)


class TestDepressedCubic:
    def test_simple(self):
        assert solve_depressed_cubic(1.0, 0.0) == pytest.approx((0.5, 0.0, -0.5), abs=1e-15)

    def test_dd_invariants_roots(self):
        # closed forms 1/6 + lam/2, 1/6 - lam/2, -1/3 at lam = 0.8
        e = solve_depressed_cubic(0.9733333333333333, 0.17629629629629628)
        assert e == pytest.approx((0.5666666666666667, -0.23333333333333336, -1.0 / 3.0), abs=1e-14)

    def test_y4_invariants_roots(self):
        # closed forms 4/3, -2/3 + 2 lam, -2/3 - 2 lam at lam = 0.8
        e = solve_depressed_cubic(15.573333333333332, -11.282962962962962)
        assert e == pytest.approx((4.0 / 3.0, 0.9333333333333333, -2.2666666666666666), abs=1e-13)

    def test_nonpositive_discriminant_rejected(self):
        with pytest.raises(DomainError):
            solve_depressed_cubic(0.0, 1.0)
        with pytest.raises(DomainError):
            solve_depressed_cubic(3.0, 1.0)  # 27 - 27 = 0 exactly

    def test_matches_the_list_comprehension_formula(self):
        # bit for bit, over a seeded sweep that reaches close to a double root
        def reference(g2, g3):
            amp = math.sqrt(g2 / 3.0)
            arg = 3.0 * math.sqrt(3.0) * g3 / (g2 * math.sqrt(g2))
            arg = max(-1.0, min(1.0, arg))
            theta = math.acos(arg) / 3.0
            roots = [amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
            shift = (roots[0] + roots[1] + roots[2]) / 3.0
            roots = sorted((r - shift for r in roots), reverse=True)
            return roots[0], roots[1], roots[2]

        rng = random.Random(2024)
        for i in range(20000):
            g2 = rng.uniform(1e-3, 50.0) * 10.0 ** rng.randint(-8, 8)
            edge = math.sqrt(g2 ** 3 / 27.0)
            if i % 4:
                g3 = rng.uniform(-edge, edge)
            else:
                g3 = rng.choice((-1.0, 1.0)) * edge * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))
            if g2 ** 3 - 27.0 * g3 ** 2 > 0.0:
                assert repr(solve_depressed_cubic(g2, g3)) == repr(reference(g2, g3)), (g2, g3)

    def test_roots_sum_to_zero(self):
        e1, e2, e3 = solve_depressed_cubic(15.573333333333332, -11.282962962962962)
        assert abs(e1 + e2 + e3) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(-5.0, 5.0),
        x2=st.floats(-5.0, 5.0),
        x3=st.floats(-5.0, 5.0),
    )
    def test_residual_bound(self, x1, x2, x3):
        # plant three distinct roots with zero sum, recover them
        mean = (x1 + x2 + x3) / 3.0
        roots = sorted((x1 - mean, x2 - mean, x3 - mean), reverse=True)
        if roots[0] - roots[1] < 1e-3 or roots[1] - roots[2] < 1e-3:
            return
        g2 = -4.0 * (roots[0] * roots[1] + roots[1] * roots[2] + roots[2] * roots[0])
        g3 = 4.0 * roots[0] * roots[1] * roots[2]
        out = solve_depressed_cubic(g2, g3)
        scale = max(1.0, abs(g2), abs(g3))
        for e in out:
            assert abs(4.0 * e ** 3 - g2 * e - g3) <= 1e-12 * scale

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
