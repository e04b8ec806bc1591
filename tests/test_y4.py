"""Chebyshev-quartic solutions y4_plus / y4_minus."""

import math
import random

import mpmath
import pytest

from sig4.dd import make_context
from sig4.numerics import DomainError, PoleError
from sig4.verify import Lcg64, y4_lattice
from sig4.weierstrass import mobius, wp
from sig4.y4 import (
    make_y4_context,
    y4_minus,
    y4_periods,
    y4_plus,
    y4_zero_ivp_solution,
    y4_zeros_poles,
)

MU_PLUS = 0.8944271909999159   # sqrt(0.8)
MU_MINUS = 0.4472135954999579  # sqrt(0.2)
OMEGA_BIG = 1.3327026719111978     # |omega'|/2 at kappa = 0.6
OMEGA_BIG_PRIME = 0.8524376569864587  # omega/2


def chebyshev_t4(t: float) -> float:
    """Degree-four Chebyshev polynomial, T4(cos x) = cos 4x."""
    t2 = t * t
    return 8.0 * t2 * t2 - 8.0 * t2 + 1.0


@pytest.fixture(scope="module")
def ctx():
    return make_y4_context(0.8)


def test_chebyshev_t4():
    assert chebyshev_t4(1.0) == 1.0
    assert chebyshev_t4(0.0) == 1.0
    assert abs(chebyshev_t4(math.cos(math.pi / 8.0))) <= 1e-15
    for theta in (0.3, 1.1, 2.0):
        assert chebyshev_t4(math.cos(theta)) == pytest.approx(math.cos(4 * theta), abs=1e-14)


def test_context_fields(ctx):
    assert ctx.modulus.kappa == pytest.approx(0.6, abs=1e-15)
    assert ctx.mu_plus == pytest.approx(MU_PLUS, abs=1e-15)
    assert ctx.mu_minus == pytest.approx(MU_MINUS, abs=1e-15)
    inv, pp = y4_lattice(ctx).invariants, y4_periods(ctx)
    assert inv.g2 == pytest.approx(15.573333333333332, abs=1e-12)
    assert inv.g3 == pytest.approx(-11.282962962962962, abs=1e-12)
    assert pp.half_real == pytest.approx(OMEGA_BIG, abs=1e-12)
    assert pp.half_imag_mag == pytest.approx(OMEGA_BIG_PRIME, abs=1e-12)
    e = y4_lattice(ctx).roots
    assert (e.e1, e.e2, e.e3) == pytest.approx(
        (4.0 / 3.0, 0.9333333333333333, -2.2666666666666666), abs=1e-15
    )


def test_context_root_identities(ctx):
    assert ctx.mu_plus ** 2 + ctx.mu_minus ** 2 == pytest.approx(1.0, abs=1e-15)
    assert 4.0 * ctx.mu_plus ** 2 * ctx.mu_minus ** 2 == pytest.approx(
        ctx.modulus.lam ** 2, abs=1e-14
    )
    # all four zeros of 8y^4 - 8y^2 + 2 lam^2
    for root in (ctx.mu_plus, -ctx.mu_plus, ctx.mu_minus, -ctx.mu_minus):
        assert abs(chebyshev_t4(root) - (1.0 - 2.0 * ctx.modulus.lam ** 2)) <= 1e-13


def test_context_from_the_dd_modulus_is_the_turned_dd_lattice():
    # y4 is the dd function turned by a quarter: it reads the dd context of
    # the pair, and its half-periods are the dd ones swapped and halved
    for kappa in (1e-4, 0.5, 1.0 - 1e-9):
        ctx = make_context(kappa)
        hr, hi = ctx.lattice.periods
        assert tuple(y4_periods(ctx)) == (0.5 * hi, 0.5 * hr)
        assert y4_zeros_poles(ctx) == (complex(0.25 * hi, 0.5 * hr), complex(0.25 * hi, 0.0))


def test_one_context_per_pair():
    # (0.8, 0.6) round-trips exactly, so the bare lam 0.6 names the pair of
    # the dd modulus 0.8, and both factories build the same record
    bare, dd_ctx = make_y4_context(0.6), make_context(0.8)
    assert bare == dd_ctx
    rng = Lcg64(5)
    hr, hi = y4_periods(dd_ctx)
    for z in [rng.point(2.0 * hr, 2.0 * hi) for _ in range(50)]:
        for function in (y4_plus, y4_minus):
            assert repr(_outcome(lambda w: function(w, bare), z)) == repr(
                _outcome(lambda w: function(w, dd_ctx), z))


def _outcome(function, z):
    try:
        return function(z)
    except PoleError:
        return "pole"


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize(
    "value", [1e-15, 1e-8, 1e-4, 0.5, 1.0 / math.sqrt(2.0), 0.99, 1.0 - 1e-9, 1.0 - 2.0 ** -52])
def test_turned_dd_lattice_equals_the_y4_lattice_bit_for_bit(value, bare):
    # the dd route p(2iz) gives y4+- exactly as the y4 lattice's own theta
    # quotients do, poles included; ``value`` is kappa of a dd modulus, or a
    # bare lam
    ctx = make_y4_context(value) if bare else make_context(value)
    ylat = y4_lattice(ctx)
    (k, lam), mu_p, mu_m = ctx.modulus, ctx.mu_plus, ctx.mu_minus
    routes = (
        (lambda z: y4_plus(z, ctx), lambda z: mobius(z, ylat, 1, 2.0 * k, mu_p, 4.0 * k * mu_p)),
        (lambda z: y4_minus(z, ctx), lambda z: mobius(
            z, ylat, 2, -2.0 * k * (1.0 - k + lam) / (1.0 + lam), mu_m, -4.0 * k * mu_m)),
    )
    hr, hi = y4_periods(ctx)
    assert tuple(ylat.periods) == (hr, hi)
    points = [complex(a * hr, b * hi) for a in (0.0, 0.5, 1.0, -1.5) for b in (0.0, 1.0, -2.0)]
    rng = Lcg64(3)
    points += [rng.point(2.0 * hr, 2.0 * hi) for _ in range(300)]
    for z in points:
        for turned, own in routes:
            assert repr(_outcome(turned, z)) == repr(_outcome(own, z)), z


def test_mu_minus_nearest_one():
    # mu_minus = lam/(2 mu_plus) has no 1 - kappa to cancel
    kappa = 1.0 - 1e-9
    ctx = make_context(kappa)
    with mpmath.workdps(40):
        ref = mpmath.sqrt((1 - mpmath.mpf(kappa)) / 2)
        assert abs(ctx.mu_minus / ref - 1) <= 1e-15


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_parameter_domain(bad):
    with pytest.raises(DomainError):
        make_y4_context(bad)


@pytest.mark.parametrize("function", [y4_plus, y4_minus])
@pytest.mark.parametrize("z", [1e300, complex(0.0, -1e300), complex(3.0, 1e17)])
def test_far_argument_error_names_the_callers_z(function, z):
    # y4 evaluates p at 2iz on the dd lattice; the message must not name 2iz
    with pytest.raises(DomainError, match="2\\^53 or more half-periods out") as info:
        function(z, make_y4_context(0.5))
    assert str(info.value).startswith(f"argument {z} ")


class TestY4Values:
    def test_initial_value_exact(self, ctx):
        assert y4_plus(0.0, ctx) == complex(ctx.mu_plus)
        assert y4_minus(0.0, ctx) == complex(ctx.mu_minus)

    def test_half_period_values(self, ctx):
        hr, hi = y4_periods(ctx).half_real, y4_periods(ctx).half_imag_mag
        assert y4_plus(hr, ctx).real == pytest.approx(-MU_PLUS, abs=1e-9)
        assert y4_plus(complex(0.0, hi), ctx).real == pytest.approx(MU_MINUS, abs=1e-9)
        assert y4_plus(complex(hr, hi), ctx).real == pytest.approx(-MU_MINUS, abs=1e-9)

    def test_midpoint_values_of_p(self, ctx):
        hr, hi = y4_periods(ctx).half_real, y4_periods(ctx).half_imag_mag
        lam = ctx.modulus.lam
        ylat = y4_lattice(ctx)
        assert wp(hr, ylat).real == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert wp(complex(hr, hi), ylat).real == pytest.approx(
            -2.0 / 3.0 + 2.0 * lam, abs=1e-9
        )
        assert wp(complex(0.0, hi), ylat).real == pytest.approx(
            -2.0 / 3.0 - 2.0 * lam, abs=1e-9
        )

    def test_pole_raises(self, ctx):
        with pytest.raises(PoleError):
            y4_plus(0.5 * y4_periods(ctx).half_real, ctx)


class TestShiftLaws:
    def test_real_shift_negates(self, ctx):
        rng = random.Random(21)
        hr = y4_periods(ctx).half_real
        for _ in range(30):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.7, 0.7))
            if abs(z.real) > 0.9 * hr:
                continue
            try:
                lhs = y4_plus(z + hr, ctx)
                rhs = -y4_plus(z, ctx)
            except PoleError:
                continue
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_imaginary_shift_swaps_branch(self, ctx):
        rng = random.Random(22)
        hi = y4_periods(ctx).half_imag_mag
        for _ in range(30):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.7, 0.7))
            try:
                lhs = y4_plus(z + complex(0.0, hi), ctx)
                rhs = y4_minus(z, ctx)
            except PoleError:
                continue
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_both_shifts_negate_minus_branch(self, ctx):
        rng = random.Random(24)
        hr, hi = y4_periods(ctx).half_real, y4_periods(ctx).half_imag_mag
        for _ in range(30):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.7, 0.7))
            try:
                lhs = y4_plus(z + complex(hr, hi), ctx)
                rhs = -y4_minus(z, ctx)
            except PoleError:
                continue
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_minus_at_omega(self, ctx):
        assert y4_minus(y4_periods(ctx).half_real, ctx).real == pytest.approx(
            -MU_MINUS, abs=1e-9
        )


class TestZerosPoles:
    def test_locations(self, ctx):
        zero, pole = y4_zeros_poles(ctx)
        assert zero == pytest.approx(
            complex(OMEGA_BIG / 2.0, OMEGA_BIG_PRIME), abs=1e-12
        )
        assert pole == pytest.approx(complex(OMEGA_BIG / 2.0, 0.0), abs=1e-12)

    def test_zero_value(self, ctx):
        zero, _ = y4_zeros_poles(ctx)
        assert abs(y4_plus(zero, ctx)) <= 1e-9

    def test_pole_denominator_value(self, ctx):
        # P at the pole point takes exactly the bracket-busting value 4/3 + 2 kappa
        _, pole = y4_zeros_poles(ctx)
        assert wp(pole, y4_lattice(ctx)).real == pytest.approx(
            4.0 / 3.0 + 2.0 * ctx.modulus.kappa, abs=1e-10
        )

    def test_zero_is_simple(self, ctx):
        # local linear growth: value scales linearly with the offset
        zero, _ = y4_zeros_poles(ctx)
        eps = 1e-4
        v1 = abs(y4_plus(zero + eps, ctx))
        v2 = abs(y4_plus(zero + 2 * eps, ctx))
        assert v2 / v1 == pytest.approx(2.0, rel=0.05)

    def test_negated_zero_congruent(self, ctx):
        zero, _ = y4_zeros_poles(ctx)
        assert abs(y4_plus(-zero, ctx)) <= 1e-9


class TestZeroStartSolution:
    def test_initial_condition(self, ctx):
        assert abs(y4_zero_ivp_solution(0.0, ctx)) <= 1e-9

    def test_ode_residual(self, ctx):
        h = 1e-6
        lam2 = ctx.modulus.lam ** 2
        for z in (0.3, 0.1 + 0.2j, -0.4 + 0.1j):
            y0 = y4_zero_ivp_solution(z, ctx)
            deriv = (
                y4_zero_ivp_solution(z + h, ctx) - y4_zero_ivp_solution(z - h, ctx)
            ) / (2 * h)
            y2 = y0 * y0
            assert abs(deriv * deriv - (8 * y2 * y2 - 8 * y2 + 2 * lam2)) <= 1e-7

    def test_negative_solution_via_omega_shift(self, ctx):
        hr = y4_periods(ctx).half_real
        for z in (0.2, 0.3 + 0.1j):
            lhs = y4_zero_ivp_solution(z + hr, ctx)
            rhs = -y4_zero_ivp_solution(z, ctx)
            assert abs(lhs - rhs) <= 1e-9


def test_double_values_have_zero_derivative(ctx):
    # derivative vanishes where y4_plus takes the quartic-root values
    h = 1e-6
    hr, hi = y4_periods(ctx).half_real, y4_periods(ctx).half_imag_mag
    for point in (0.0, hr, complex(0.0, hi), complex(hr, hi)):
        deriv = (y4_plus(point + h, ctx) - y4_plus(point - h, ctx)) / (2 * h)
        assert abs(deriv) <= 1e-8


def test_ode_residual_cell_sweep(ctx):
    rng = random.Random(33)
    hr, hi = y4_periods(ctx).half_real, y4_periods(ctx).half_imag_mag
    h = 1e-6
    lam2 = ctx.modulus.lam ** 2
    margin = 0.05 * min(hr, hi)
    count = 0
    while count < 200:
        z = complex(rng.uniform(-hr, hr), rng.uniform(-hi, hi))
        if abs(z) < margin or abs(z - hr / 2) < margin or abs(z + hr / 2) < margin:
            continue
        count += 1
        y0 = y4_plus(z, ctx)
        deriv = (y4_plus(z + h, ctx) - y4_plus(z - h, ctx)) / (2 * h)
        y2 = y0 * y0
        residual = abs(deriv * deriv - (8 * y2 * y2 - 8 * y2 + 2 * lam2))
        assert residual <= 1e-7 * (1.0 + abs(y0) ** 4)
