"""Weierstrass machinery: midpoints, periods, p and p', special values."""

import cmath
import math
import random

import mpmath
import pytest

from sig4.dd import dd, make_context
from sig4.numerics import DomainError, PoleError, UnsupportedLatticeError
from sig4.quartic import QuarticCoefficients, solve_quartic_ivp
from sig4.verify import dd_equation_quartic, y4_lattice
from sig4.weierstrass import (
    _ANCHOR_ROOTS,
    _SHIFTS,
    _SLOPE_SIGNS,
    Invariants,
    _evaluate,
    build_lattice,
    half_periods,
    lattice,
    midpoints,
    wp,
    wp_prime,
)
from sig4.y4 import make_y4_context, y4_minus, y4_periods, y4_plus

# invariants of the two lattices at kappa = 0.6 / lam = 0.8
INV_DD = Invariants(0.9733333333333333, 0.17629629629629628)
INV_Y4 = Invariants(15.573333333333332, -11.282962962962962)

# AGM half-periods must agree with the hypergeometric series route:
# omega = (pi/2) F(1/4,3/4;1;0.36), |omega'| = (pi/sqrt2) F(1/4,3/4;1;0.64)
OMEGA = 1.7048753139729174
OMEGA_PRIME = 2.6654053438223957


def wp_quarter_values(inv: Invariants) -> tuple[float, float]:
    """p at half of the real half-period, and at that point plus the imaginary one.

    Closed forms in the midpoint values:
        p(half_real/2)          = e1 + sqrt((e1-e2)(e1-e3))
        p(half_real/2 + imag)   = e1 - sqrt((e1-e2)(e1-e3))
    """
    e = midpoints(inv)
    root = math.sqrt((e.e1 - e.e2) * (e.e1 - e.e3))
    return e.e1 + root, e.e1 - root


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


@pytest.mark.parametrize("call", [
    lambda: wp(0.3, Invariants(1.0, 1.0)),
    lambda: wp_prime(0.3, Invariants(1.0, 1.0)),
    lambda: half_periods(Invariants(1.0, 1.0)),
    lambda: midpoints(Invariants(1.0, 1.0)),
    # w^4 - 1 has two real and two complex roots: g2 = -1, g3 = 0
    lambda: solve_quartic_ivp(QuarticCoefficients(1.0, 0.0, 0.0, 0.0, -1.0), 1.0),
    # the float discriminant of the dd invariants is exactly 0 at kappa = 1e-4
    lambda: solve_quartic_ivp(dd_equation_quartic(make_context(1e-4).modulus.lam), 1.0),
], ids=["wp", "wp_prime", "half_periods", "midpoints", "quartic-negative", "quartic-zero"])
def test_non_rectangular_invariants_are_an_unsupported_lattice(call):
    # the cubic solver behind ``lattice`` holds the one discriminant check
    with pytest.raises(UnsupportedLatticeError, match="g2\\^3 - 27 g3\\^2 = .* is not positive"):
        call()


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
    """wp at far translates of a point, of a lattice point and of each half-period."""

    pp = half_periods(INV_DD)
    e = midpoints(INV_DD)

    def test_full_period_collapses(self):
        with pytest.raises(PoleError):
            wp(complex(6.0 * self.pp.half_real, -4.0 * self.pp.half_imag_mag), INV_DD)

    def test_half_period_representative(self):
        hr, hi = self.pp.half_real, self.pp.half_imag_mag
        for z, e in (
            (complex(11.0 * hr, 0.0), self.e.e1),
            (complex(-7.0 * hr, 5.0 * hi), self.e.e2),
            (complex(4.0 * hr, -3.0 * hi), self.e.e3),
        ):
            assert wp(z, INV_DD) == pytest.approx(e, abs=1e-13)
            assert abs(wp_prime(z, INV_DD)) <= 1e-12

    def test_imaginary_period_stripped(self):
        for k in (1, -3, 8):
            z = 0.3 + 0.1j + 2j * k * self.pp.half_imag_mag
            assert abs(wp(z, INV_DD) - wp(0.3 + 0.1j, INV_DD)) <= 1e-11

    def test_wp_invariant_under_reduction(self):
        hr, hi = self.pp.half_real, self.pp.half_imag_mag
        for z in (0.37 + 0.41j, -0.5 - 0.23j, 1.1 + 2.0j):
            base = wp(z, INV_DD)
            for mr, mi in ((5, 0), (-4, 3), (12, -9)):
                far = z + complex(2.0 * mr * hr, 2.0 * mi * hi)
                assert abs(wp(far, INV_DD) - base) <= 1e-11 * (1 + abs(base))


KERNEL_KAPPAS = [1e-4, 1e-3, 0.5, 0.99, 1.0 - 1e-6]


def _lattice_and_roots(kind: str, kappa: float, exact: bool = False):
    """The float lattice of ``kind`` at ``kappa``, and its roots exact in mp.

    The y4 lattice is the suite's own, in the rotated frame.  The roots are
    the closed forms of the float lam each context is built from, so the
    reference shares the lattice's input but none of its arithmetic.  With
    ``exact``, the y4 lattice comes from the dd modulus pair and
    lam = sqrt(1 - kappa^2) is formed in mp from the float kappa:
    at kappa <= 1e-8 the float lam rounds to 1.0, and roots built from it
    merge.  60 digits keep 29 in the gap 1 - lam ~ 5e-31 at kappa = 1e-15.
    """
    ctx = make_context(kappa)
    lat = ctx.lattice if kind == "dd" else y4_lattice(
        ctx if exact else make_y4_context(ctx.modulus.lam))
    with mpmath.workdps(60):
        lam = mpmath.sqrt(1 - mpmath.mpf(kappa) ** 2) if exact else mpmath.mpf(ctx.modulus.lam)
        third = mpmath.mpf(1) / 3
        if kind == "dd":
            roots = ((1 + 3 * lam) / 6, (1 - 3 * lam) / 6, -third)
        else:
            roots = (4 * third, 2 * lam - 2 * third, -2 * third - 2 * lam)
    return lat, roots


def _jacobi(roots, z: complex):
    """p - e1, p - e2, p - e3 and p' in mp, each a product, from the Jacobi
    form p = e3 + (e1 - e3)/sn^2(sqrt(e1 - e3) z | m)."""
    with mpmath.workdps(60):
        e1, e2, e3 = roots
        gap = e1 - e3
        root = mpmath.sqrt(gap)
        u, m = root * mpmath.mpc(z), (e2 - e3) / gap
        sn, cn, dn = (mpmath.ellipfun(f, u, m) for f in ("sn", "cn", "dn"))
        p3 = gap / sn ** 2
        return p3 * cn ** 2, p3 * dn ** 2, p3, -2 * gap * root * cn * dn / sn ** 3


def _wp_reference(roots, z: complex) -> tuple[complex, complex]:
    """p and p' from the Jacobi form."""
    _, _, p3, dp = _jacobi(roots, z)
    with mpmath.workdps(60):
        return complex(roots[2] + p3), complex(dp)


@pytest.mark.parametrize("kind", ["dd", "y4"])
@pytest.mark.parametrize("kappa", KERNEL_KAPPAS)
def test_wp_near_half_periods_and_quarter_points_against_mpmath(kind, kappa):
    lat, roots = _lattice_and_roots(kind, kappa)
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    scale = min(hr, hi)
    halves = (complex(hr, 0.0), complex(hr, hi), complex(0.0, hi))
    quarters = (
        complex(0.5 * hr, 0.0), complex(0.0, 0.5 * hi), complex(0.5 * hr, hi),
        complex(hr, 0.5 * hi), complex(0.5 * hr, 0.5 * hi),
    )
    for centre in halves + quarters:
        for distance in (1e-6, 1e-3, 0.1):
            for direction in (1.0, 1j, cmath.exp(0.75j * math.pi)):
                z = centre + distance * scale * direction
                p, dp = _wp_reference(roots, z)
                assert abs(wp(z, lat) - p) <= 1e-14 * max(1.0, abs(p)), z
                assert abs(wp_prime(z, lat) - dp) <= 1e-13 * max(1.0, abs(dp)), z


def test_wp_prime_near_half_period_of_nearly_degenerate_lattice():
    # y4 lattice at kappa = 1e-4: e1 - e2 is 5e-9.  -5.632 - 0.010i is 0.013
    # from the half-period half_real + 0j; at 2.8166 - 0.0411i, close to the
    # quarter point half_real/2, |p'| is small (8e-4) and keeps its
    # relative accuracy
    lat, roots = _lattice_and_roots("y4", 1e-4)
    for z in (-5.632 - 0.010j, 2.8166 - 0.0411j):
        p, dp = _wp_reference(roots, z)
        assert abs(wp(z, lat) - p) <= 1e-14 * max(1.0, abs(p)), z
        assert abs(wp_prime(z, lat) - dp) <= 1e-13 * abs(dp), z


@pytest.mark.parametrize("kappa", [1e-4, 1e-3, 0.05, 0.5, 0.9, 0.99, 1.0 - 1e-6])
def test_shared_nome_in_opposite_frames(kappa):
    # the y4 lattice is the dd lattice turned by a quarter and halved, so
    # both share the nome, in opposite frames
    lat, _ = _lattice_and_roots("dd", kappa)
    ylat, _ = _lattice_and_roots("y4", kappa)
    assert lat.nome == pytest.approx(ylat.nome, rel=1e-8)
    assert 0.0 < lat.nome <= math.exp(-math.pi)
    assert lat.rotated != ylat.rotated
    assert lat.rotated == (lat.periods.half_real > lat.periods.half_imag_mag)


# from the smallest moduli, where the float lam is 1.0, to near one
EXACT_KAPPAS = [1e-15, 1e-12, 1e-8, 1e-6, 1e-4, 0.5, 1.0 - 1e-9]


@pytest.mark.parametrize("kind", ["dd", "y4"])
@pytest.mark.parametrize("kappa", EXACT_KAPPAS)
def test_p_minus_each_root_is_relatively_accurate(kind, kappa):
    # p - e_j near every half-period and quarter point, where it is small
    # away from omega_j or large near the lattice
    lat, roots = _lattice_and_roots(kind, kappa, exact=True)
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    scale = min(hr, hi)
    for centre in (complex(a * hr, b * hi) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)):
        for distance in (0.05, 0.3):
            for direction in (1.0, 1j, cmath.exp(0.75j * math.pi), cmath.exp(-0.3j)):
                z = centre + distance * scale * direction
                for j, ref in enumerate(map(complex, _jacobi(roots, z)[:3]), 1):
                    value = _evaluate(z, lat, j, False)[0]
                    assert abs(value - ref) <= 1e-12 * abs(ref), (z, j)


def test_p_minus_e1_at_the_y4_quarter_point():
    # 2.8166 - 0.0411i, on the y4 lattice at kappa = 1e-4, is near the
    # quarter point Omega/2, where P - E1 ~ 2 kappa is far below the roots
    lat, roots = _lattice_and_roots("y4", 1e-4, exact=True)
    z = 2.8166 - 0.0411j
    ref = complex(_jacobi(roots, z)[0])
    assert abs(_evaluate(z, lat, 1, False)[0] - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("kappa", EXACT_KAPPAS)
def test_y4_over_the_cell_against_mpmath(kappa):
    # y4+- = mu+- (1 +- 4 kappa/((P - E1) -+ 2 kappa)) at the exact lam
    ctx = make_context(kappa)
    lat, roots = _lattice_and_roots("y4", kappa, exact=True)
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    margin = 0.05 * min(hr, hi)
    poles = (complex(0.5 * hr, 0.0), complex(-0.5 * hr, 0.0), complex(0.5 * hr, hi),
             complex(-0.5 * hr, hi), complex(0.5 * hr, -hi), complex(-0.5 * hr, -hi))
    rng = random.Random(13)
    with mpmath.workdps(60):
        k = mpmath.mpf(kappa)
        mu_plus = mpmath.sqrt((1 + k) / 2)
        mu_minus = mpmath.sqrt(1 - k * k) / (2 * mu_plus)
    count = 0
    while count < 40:
        z = complex(rng.uniform(-hr, hr), rng.uniform(-hi, hi))
        if abs(z) < margin or any(abs(z - p) < margin for p in poles):
            continue
        count += 1
        p1 = _jacobi(roots, z)[0]
        with mpmath.workdps(60):
            refs = (complex(mu_plus * (1 + 4 * k / (p1 - 2 * k))),
                    complex(mu_minus * (1 - 4 * k / (p1 + 2 * k))))
        for value, ref in zip((y4_plus(z, ctx), y4_minus(z, ctx)), refs):
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), z


@pytest.mark.parametrize("kind", ["dd", "y4"])
@pytest.mark.parametrize("kappa", [1e-4, 0.5, 1.0 - 1e-6])
def test_wp_continuous_across_anchor_boundaries(kind, kappa):
    # the nearest half-period point changes across Re z = (2k+1) half_real/2
    # and Im z = (2k+1) half_imag_mag/2; p and p' agree to first order in
    # the step across each line
    lat, _ = _lattice_and_roots(kind, kappa)
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    step = 1e-9 * min(hr, hi)
    crossings = []
    for t in (i / 8.0 for i in range(-7, 8)):
        for k in (-1.0, 1.0, 3.0):
            crossings.append((complex(0.5 * k * hr, t * hi), step))
            crossings.append((complex(t * hr, 0.5 * k * hi), 1j * step))
    for z, d in crossings:
        p, dp = wp(z, lat), wp_prime(z, lat)
        second = 6.0 * p * p - 0.5 * lat.invariants.g2
        jump_p = wp(z + d, lat) - wp(z - d, lat) - 2.0 * d * dp
        jump_dp = wp_prime(z + d, lat) - wp_prime(z - d, lat) - 2.0 * d * second
        assert abs(jump_p) <= 1e-13 * max(1.0, abs(p)), z
        assert abs(jump_dp) <= 2e-9 * max(1.0, abs(dp)), z


def test_invariants_reject_nonfinite():
    with pytest.raises(DomainError):
        Invariants(math.inf, 0.0)
    with pytest.raises(DomainError):
        Invariants(1.0, math.nan)


def _mobius_images():
    """(function, value at the lattice points, a pole) for every caller of ``mobius``."""
    ctx = make_context(0.5)
    hr, hi = y4_periods(ctx)
    solution, inv = solve_quartic_ivp(dd_equation_quartic(ctx.modulus.lam), 1.0)
    return {
        "dd": (lambda z: dd(z, ctx), 1.0, complex(0.0, ctx.lattice.periods.half_imag_mag)),
        "y4_plus": (lambda z: y4_plus(z, ctx), ctx.mu_plus, complex(0.5 * hr, 0.0)),
        "y4_minus": (lambda z: y4_minus(z, ctx), ctx.mu_minus, complex(0.5 * hr, hi)),
        "quartic": (solution, 1.0, complex(0.0, lattice(inv).periods.half_imag_mag)),
    }


@pytest.mark.parametrize("name", ["dd", "y4_plus", "y4_minus", "quartic"])
def test_mobius_removable_point_and_pole(name):
    # p's pole is removable in each Moebius image: the value there is the
    # head; the image's own pole raises, also one period away
    function, head, pole = _mobius_images()[name]
    assert function(0.0) == complex(head)
    with pytest.raises(PoleError):
        function(pole)
    with pytest.raises(PoleError):
        function(-pole)


def test_absolute_p_keeps_an_absolute_pole_floor():
    # at kappa = 0.5 the dd equation's solution from w0 = 1 has A3 = -1/8.
    # Near omega', p - e3 ~ (e3 - e1)(e3 - e2) dz^2 = (kappa^2/4) dz^2, so at
    # dz = sqrt(8e-12), p - e3 = 5e-13: dd, on p - e3, which is relatively
    # accurate, is finite; the solution, on absolute p, raises
    ctx = make_context(0.5)
    z = complex(math.sqrt(8e-12), ctx.lattice.periods.half_imag_mag)
    solution, _ = solve_quartic_ivp(dd_equation_quartic(ctx.modulus.lam), 1.0)
    assert abs(dd(z, ctx)) == pytest.approx(0.125 / 5e-13, rel=1e-3)
    with pytest.raises(PoleError):
        solution(z)


@pytest.mark.parametrize("kind", ["dd", "y4"])
def test_huge_arguments_raise_domain_error(kind):
    # past 2^53 half-periods the reduced argument keeps no digits
    lat, _ = _lattice_and_roots(kind, 0.5)
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    for z in (complex(2.0 ** 53 * hr, 0.0), complex(0.0, -(2.0 ** 53) * hi),
              complex(1e300, 0.5), complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(DomainError):
            wp(z, lat)
        with pytest.raises(DomainError):
            wp_prime(z, lat)
    with pytest.raises(DomainError):
        dd(1e300, make_context(0.5))
    with pytest.raises(DomainError):
        y4_plus(1e300, make_y4_context(0.5))


@pytest.mark.parametrize("kappa", [1e-4, 0.5, 1.0 - 1e-9])
def test_value_alone_matches_value_with_derivative(kappa):
    # without p', _evaluate forms only theta_N and theta_D: the value must be
    # the one the four-theta path gives, bit for bit, in both frames, at
    # every anchor and for every root
    ctx = make_context(kappa)
    lattices = (ctx.lattice, y4_lattice(ctx))
    assert {lat.rotated for lat in lattices} == {False, True}
    for lat in lattices:
        hr, hi = lat.periods
        near = min(hr, hi)
        for sr, si in ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 2)):
            for offset in (0.05 + 0.03j, -0.2 + 0.1j, 0.01 - 0.3j):
                z = complex(sr * hr, si * hi) + offset * near
                for j in range(4):
                    assert _evaluate(z, lat, j, False)[0] == _evaluate(z, lat, j, True)[0], (z, j)


def _table_by_anchor(roots, d12, d13, d23, rotated):
    """(table, slopes) filled anchor by anchor straight from _SHIFTS, _SLOPE_SIGNS
    and _ANCHOR_ROOTS, with every K and K' formed as sign times value."""
    frame = (0, 3, 2, 1) if rotated else (0, 1, 2, 3)
    sign, turn = (-1.0, 1j) if rotated else (1.0, 1.0)
    ks = (0.0, math.sqrt(d12 * d13), math.sqrt(d12 * d23), math.sqrt(d13 * d23))
    slope = 2.0 * turn * ks[1] * math.sqrt(d23)
    es = (0.0,) + tuple(roots)
    table = []
    for k in _ANCHOR_ROOTS:
        row = [None]
        for j in (1, 2, 3):
            n, d, s = _SHIFTS[frame[k]][frame[j] - 1]
            row.append((n, d, sign * s * ks[j], 0.0))
        own = k or frame[1]
        row[0] = row[own][:3] + (es[own],)
        table.append(tuple(row))
    return tuple(table), tuple(_SLOPE_SIGNS[frame[k]] * slope for k in _ANCHOR_ROOTS)


# around 1/sqrt2 and on both sides of 2 sqrt2/3, where the dd lattice changes
# frame (omega = |omega'| at lam = 1/3; one ulp below, the two are equal), out
# to the ends of the range (at 1e-300 kappa^2 underflows and two K are 0.0)
SQUARE_KAPPA = 2.0 * math.sqrt(2.0) / 3.0
TEMPLATE_KAPPAS = [1e-300, 1e-8, 0.3, math.nextafter(2 ** -0.5, 0.0), 2 ** -0.5, 0.72,
                   math.nextafter(SQUARE_KAPPA, 0.0), SQUARE_KAPPA, 0.945, 0.99, 1.0 - 2.0 ** -53]


def test_frame_templates_give_the_anchor_by_anchor_table():
    # every (N, D, K, head) and every slope, by repr, so a sign of zero counts
    lattices = [make_context(kappa).lattice for kappa in TEMPLATE_KAPPAS]
    assert {lat.rotated for lat in lattices} == {False, True}
    assert any(lat.periods.half_real == lat.periods.half_imag_mag for lat in lattices)
    for kappa in TEMPLATE_KAPPAS:
        ctx = make_context(kappa)
        (_, lam), ylat = ctx.modulus, y4_lattice(ctx)
        gaps = {
            "dd": (lam, 0.5 * (1.0 + lam), kappa * kappa / (2.0 * (1.0 + lam))),
            "y4": (2.0 * kappa * kappa / (1.0 + lam), 2.0 * (1.0 + lam), 4.0 * lam),
        }
        for kind, lat in (("dd", ctx.lattice), ("y4", ylat)):
            built = build_lattice(lat.invariants, lat.roots, *gaps[kind])
            assert repr(built) == repr(lat), (kind, kappa)
            reference = _table_by_anchor(lat.roots, *gaps[kind], lat.rotated)
            assert repr((lat.table, lat.slopes)) == repr(reference), (kind, kappa)
    rng = random.Random(11)
    for _ in range(40):
        g2 = rng.uniform(0.1, 10.0)
        g3 = rng.uniform(-0.99, 0.99) * math.sqrt(g2 ** 3 / 27.0)
        lat = lattice(Invariants(g2, g3))
        e1, e2, e3 = lat.roots
        reference = _table_by_anchor(lat.roots, e1 - e2, e1 - e3, e2 - e3, lat.rotated)
        assert repr((lat.table, lat.slopes)) == repr(reference), (g2, g3)
