"""Weierstrass machinery: midpoints, periods, p and p', special values."""

import cmath
import math
import random

import pytest

from sig4.numerics import DomainError, PoleError
from sig4.weierstrass import (
    Invariants,
    PeriodPair,
    half_periods,
    lattice_reduce,
    midpoints,
    wp,
    wp_prime,
    wp_quarter_values,
)

# invariants of the two lattices at kappa = 0.6 / lam = 0.8
INV_DD = Invariants(0.9733333333333333, 0.17629629629629628)
INV_Y4 = Invariants(15.573333333333332, -11.282962962962962)

# AGM half-periods must agree with the hypergeometric series route:
# omega = (pi/2) F(1/4,3/4;1;0.36), |omega'| = (pi/sqrt2) F(1/4,3/4;1;0.64)
OMEGA = 1.7048753139729174
OMEGA_PRIME = 2.6654053438223957


def test_midpoints_dd_lattice():
    e = midpoints(INV_DD)
    assert (e.e1, e.e2, e.e3) == pytest.approx(
        (0.5666666666666667, -0.23333333333333336, -1.0 / 3.0), abs=1e-14
    )


def test_midpoints_y4_lattice():
    e = midpoints(INV_Y4)
    assert (e.e1, e.e2, e.e3) == pytest.approx(
        (4.0 / 3.0, 0.9333333333333333, -2.2666666666666666), abs=1e-13
    )


def test_midpoints_simple():
    e = midpoints(Invariants(1.0, 0.0))
    assert (e.e1, e.e2, e.e3) == pytest.approx((0.5, 0.0, -0.5), abs=1e-15)


def test_midpoints_requires_positive_discriminant():
    with pytest.raises(DomainError):
        midpoints(Invariants(1.0, 1.0))


def test_half_periods_against_series_route():
    pp = half_periods(INV_DD)
    assert abs(pp.half_real - OMEGA) < 1e-13
    assert abs(pp.half_imag_mag - OMEGA_PRIME) < 1e-13


def test_half_periods_y4_lattice_transfer():
    # the y4 lattice is the quarter-turned dd lattice: Omega = |omega'|/2
    pp = half_periods(INV_Y4)
    assert abs(pp.half_real - OMEGA_PRIME / 2.0) < 1e-13
    assert abs(pp.half_imag_mag - OMEGA / 2.0) < 1e-13


class TestWp:
    def test_midpoint_values(self):
        pp = half_periods(INV_DD)
        e = midpoints(INV_DD)
        assert wp(pp.half_real, INV_DD).real == pytest.approx(e.e1, abs=1e-9)
        assert wp(complex(pp.half_real, pp.half_imag_mag), INV_DD).real == pytest.approx(
            e.e2, abs=1e-9
        )
        assert wp(complex(0.0, pp.half_imag_mag), INV_DD).real == pytest.approx(e.e3, abs=1e-9)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            wp(0.0, INV_DD)
        pp = half_periods(INV_DD)
        with pytest.raises(PoleError):
            wp(complex(2.0 * pp.half_real, 2.0 * pp.half_imag_mag), INV_DD)

    def test_ode_residual_cell_sweep(self):
        pp = half_periods(INV_DD)
        rng = random.Random(11)
        count = 0
        while count < 200:
            z = complex(
                rng.uniform(-pp.half_real, pp.half_real),
                rng.uniform(-pp.half_imag_mag, pp.half_imag_mag),
            )
            if abs(z) < 0.05:
                continue
            count += 1
            p = wp(z, INV_DD)
            dp = wp_prime(z, INV_DD)
            residual = abs(dp * dp - (4.0 * p ** 3 - INV_DD.g2 * p - INV_DD.g3))
            assert residual <= 1e-9 * (1.0 + abs(p) ** 3)

    def test_periodicity(self):
        pp = half_periods(INV_DD)
        for z in (0.3 + 0.2j, -0.7 + 0.9j, 1.1 - 0.4j):
            base = wp(z, INV_DD)
            assert abs(wp(z + 2.0 * pp.half_real, INV_DD) - base) <= 1e-10
            assert abs(wp(z + 2j * pp.half_imag_mag, INV_DD) - base) <= 1e-10

    def test_evenness(self):
        for z in (0.3 + 0.2j, 0.9 - 0.5j, -1.2 + 1.0j):
            assert abs(wp(-z, INV_DD) - wp(z, INV_DD)) <= 1e-12 * (1 + abs(wp(z, INV_DD)))

    def test_homogeneity(self):
        # p(gamma z; g2, g3) = gamma^-2 p(z; gamma^4 g2, gamma^6 g3) for the
        # scalings that keep the invariants real: gamma in {2, i, 2i}
        rng = random.Random(5)
        cases = [(2.0, 16.0, 64.0), (1j, 1.0, -1.0), (2j, 16.0, -64.0)]
        for _ in range(25):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            if abs(z) < 0.2:
                continue
            for gamma, s4, s6 in cases:
                lhs = wp(gamma * z, INV_DD)
                rhs = wp(z, Invariants(s4 * INV_DD.g2, s6 * INV_DD.g3)) / gamma ** 2
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("inv", [INV_DD, INV_Y4], ids=["dd", "y4"])
    def test_derivative_matches_finite_differences(self, inv):
        h = 1e-6
        rng = random.Random(3)
        for _ in range(40):
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.9, 0.9))
            if abs(z) < 0.15:
                continue
            fd = (wp(z + h, inv) - wp(z - h, inv)) / (2.0 * h)
            assert abs(wp_prime(z, inv) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_wp_prime_vanishes_at_half_periods():
    pp = half_periods(INV_DD)
    assert abs(wp_prime(pp.half_real, INV_DD)) <= 1e-10
    assert abs(wp_prime(complex(pp.half_real, pp.half_imag_mag), INV_DD)) <= 1e-10


def test_quarter_values_closed_form_y4_lattice():
    # lam = 0.8, kappa = 0.6: P(half/2) = 4/3 + 2 kappa, shifted one = 4/3 - 2 kappa
    at_half, at_half_plus = wp_quarter_values(INV_Y4)
    assert at_half == pytest.approx(2.533333333333333, abs=1e-12)
    assert at_half_plus == pytest.approx(0.1333333333333333, abs=1e-12)


def test_quarter_values_match_direct_evaluation():
    pp = half_periods(INV_Y4)
    at_half, at_half_plus = wp_quarter_values(INV_Y4)
    direct = wp(0.5 * pp.half_real, INV_Y4)
    assert abs(direct - at_half) <= 1e-9
    direct2 = wp(complex(0.5 * pp.half_real, pp.half_imag_mag), INV_Y4)
    assert abs(direct2 - at_half_plus) <= 1e-9


class TestLatticeReduce:
    pp = PeriodPair(1.7, 0.9)

    def test_full_period_collapses(self):
        assert abs(lattice_reduce(2 * 1.7, self.pp)) <= 1e-14

    def test_half_period_representative(self):
        z = lattice_reduce(1.7 + 5 * (2 * 1.7), self.pp)
        assert z == pytest.approx(1.7 + 0j, abs=1e-12)

    def test_imaginary_period_stripped(self):
        z = lattice_reduce(0.3 + 2j * 0.9, self.pp)
        assert abs(z - 0.3) <= 1e-14

    def test_wp_invariant_under_reduction(self):
        pp = half_periods(INV_DD)
        for z in (3.7 + 4.1j, -5.0 - 2.3j):
            reduced = lattice_reduce(z, pp)
            assert abs(wp(z, INV_DD) - wp(reduced, INV_DD)) <= 1e-11 * (
                1 + abs(wp(z, INV_DD))
            )


def test_invariants_reject_nonfinite():
    with pytest.raises(DomainError):
        Invariants(math.inf, 0.0)
    with pytest.raises(DomainError):
        Invariants(1.0, math.nan)
