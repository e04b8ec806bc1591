"""The dd family: modulus bundle, forward integral, phi, d, dd, periods."""

import math
import random

import mpmath
import pytest
from click.testing import CliRunner

from sig4.cli import main
from sig4.dd import (
    d_real,
    dd,
    forward_integral,
    make_context,
    make_modulus,
    phi,
    phi_many,
)
from sig4.hypergeometric import complete_f, hyp2f1
from sig4.numerics import DomainError, Interval, PoleError, integrate
from sig4.verify import omega_prime, omega_three_ways
from sig4.weierstrass import wp
from sig4.y4 import make_y4_context

# frozen oracle values at kappa = 0.6 (Pochhammer series route)
OMEGA = 1.7048753139729174
OMEGA_PRIME = 2.6654053438223957

# from the smallest moduli to the two largest doubles below 1
KAPPAS = [1e-8, 1e-4, 0.5, 0.9999, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]

# the contexts of KAPPAS, and of two bare lam whose kappa, fed back to
# make_context, names a lam one ulp away: each function reads the one it is given
PAIRS = [make_context(k) for k in KAPPAS] + [make_y4_context(0.45), make_y4_context(0.9)]
PAIR_IDS = [repr(k) for k in KAPPAS] + ["lam=0.45", "lam=0.9"]


def _jacobi(kappa):
    """(lam, scale, m) of the Jacobi form, at the exact lam of the float kappa.

    dd(z) = 1 - (1 - lam) sn^2(scale z | m), scale = sqrt((1 + lam)/2),
    m = (1 - lam)/(1 + lam), in the caller's working precision.
    """
    lam = mpmath.sqrt(1 - mpmath.mpf(kappa) ** 2)
    return lam, mpmath.sqrt((1 + lam) / 2), (1 - lam) / (1 + lam)


def _jacobi_phi(u, kappa):
    """phi(u) from the amplitude theta = am(scale u | m), at 40 digits.

    sin^2 phi = (1 - d^2)/kappa^2 with 1 - d = (1 - lam) sin^2 theta gives
    tan phi = tan theta sqrt((2 - (1 - lam) s^2)/(1 + lam - (1 - lam) s^2)),
    s = sin theta, and am(x + 2K) = am(x) + pi carries the branch.
    """
    with mpmath.workdps(40):
        lam, scale, m = _jacobi(kappa)
        x = scale * mpmath.mpf(u)
        two_k = 2 * mpmath.ellipk(m)
        wraps = mpmath.nint(x / two_k)
        x -= wraps * two_k
        sn, cn = mpmath.ellipfun("sn", x, m=m), mpmath.ellipfun("cn", x, m=m)
        angle = mpmath.atan2(sn * mpmath.sqrt(2 - (1 - lam) * sn ** 2),
                             cn * mpmath.sqrt(1 + lam - (1 - lam) * sn ** 2))
        return wraps * mpmath.pi + angle


@pytest.fixture(scope="module")
def ctx():
    return make_context(0.6)


def test_modulus_bundle():
    mod = make_modulus(0.6)
    assert mod.lam == pytest.approx(0.8, abs=1e-15)
    assert mod.kappa ** 2 + mod.lam ** 2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_modulus_domain(bad):
    with pytest.raises(DomainError):
        make_modulus(bad)
    with pytest.raises(DomainError):
        make_context(bad)


def test_context_invariants(ctx):
    inv, pp = ctx.lattice.invariants, ctx.lattice.periods
    assert inv.g2 == pytest.approx(0.9733333333333333, abs=1e-15)
    assert inv.g3 == pytest.approx(0.17629629629629628, abs=1e-15)
    assert inv.discriminant == pytest.approx(0.08294400000000002, abs=1e-13)
    assert pp.half_real == pytest.approx(OMEGA, abs=1e-12)
    assert pp.half_imag_mag == pytest.approx(OMEGA_PRIME, abs=1e-12)
    e = ctx.lattice.roots
    assert (e.e1, e.e2, e.e3) == pytest.approx(
        (0.5666666666666667, -0.23333333333333336, -1.0 / 3.0), abs=1e-15
    )


class TestForwardIntegral:
    def test_zero(self, ctx):
        assert forward_integral(0.0, ctx) == 0.0

    def test_at_half_pi(self, ctx):
        assert forward_integral(0.5 * math.pi, ctx) == pytest.approx(OMEGA, abs=1e-11)

    def test_at_pi_doubles(self, ctx):
        assert forward_integral(math.pi, ctx) == pytest.approx(2 * OMEGA, abs=1e-11)

    def test_odd(self, ctx):
        assert forward_integral(-0.7, ctx) == pytest.approx(
            -forward_integral(0.7, ctx), abs=1e-14
        )

    def test_strictly_increasing(self, ctx):
        values = [forward_integral(t, ctx) for t in (0.0, 0.5, 1.3, 2.0, 3.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kappa", [1e-4, 1e-3, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6])
    def test_at_half_pi_against_mpmath(self, kappa):
        with mpmath.workdps(30):
            omega = mpmath.pi / 2 * mpmath.hyp2f1(0.25, 0.75, 1, mpmath.mpf(kappa) ** 2)
            assert abs(forward_integral(0.5 * math.pi, make_context(kappa)) - omega) <= 1e-12

    def test_at_half_pi_nearest_one(self):
        # the floor is the float pi/2, 6.1e-17 below pi/2, where f ~ 2.2e4
        kappa = 1.0 - 1e-9
        with mpmath.workdps(30):
            omega = mpmath.pi / 2 * mpmath.hyp2f1(0.25, 0.75, 1, mpmath.mpf(kappa) ** 2)
            assert abs(forward_integral(0.5 * math.pi, make_context(kappa)) - omega) <= 2e-12

    @pytest.mark.parametrize("kappa", [0.5, 0.9999])
    def test_large_argument_against_mpmath(self, kappa):
        # reduced by u(T + pi) = u(T) + 2 omega, not integrated across |T|
        ctx = make_context(kappa)
        with mpmath.workdps(30):
            k2 = mpmath.mpf(kappa) ** 2
            omega = mpmath.pi / 2 * mpmath.hyp2f1(0.25, 0.75, 1, k2)
            for T in (100.0, 1000.0, -1e4):
                wraps = mpmath.nint(T / mpmath.pi)
                r = T - wraps * mpmath.pi
                quad = mpmath.quad(
                    lambda t: mpmath.hyp2f1(0.25, 0.75, 0.5, k2 * mpmath.sin(t) ** 2),
                    [0, r / 2, r],
                )
                ref = 2 * wraps * omega + quad
                assert abs(forward_integral(T, ctx) - ref) <= 4e-16 * abs(ref), T

    @pytest.mark.parametrize("kappa", [0.05, 0.5, 0.9, 0.99])
    def test_closed_integrand_matches_series(self, kappa):
        # the integral of the closed integrand, by R_F, against the series
        # integrated by tanh-sinh where it is accurate, kappa^2 sin^2 t <= 0.9
        ctx = make_context(kappa)
        for i in range(1, 33):
            T = 0.05 * i
            if (kappa * math.sin(T)) ** 2 > 0.9:
                break
            series = integrate(lambda t: hyp2f1(0.25, 0.75, 0.5, (kappa * math.sin(t)) ** 2),
                               Interval(0.0, T), 1e-15)
            assert abs(forward_integral(T, ctx) - series) <= 1e-13 * series, T


class TestPhi:
    def test_zero(self, ctx):
        assert phi(0.0, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_at_omega(self, ctx):
        assert phi(OMEGA, ctx) == pytest.approx(0.5 * math.pi, abs=1e-10)

    def test_at_two_omega(self, ctx):
        assert phi(2 * OMEGA, ctx) == pytest.approx(math.pi, abs=1e-10)

    def test_roundtrip(self, ctx):
        rng = random.Random(2)
        for _ in range(12):
            u = rng.uniform(-8.0, 8.0)
            assert forward_integral(phi(u, ctx), ctx) == pytest.approx(
                u, abs=1e-10
            )

    def test_phi_many_matches_scalar(self, ctx):
        us = [-3.5, -0.4, 0.0, 1.1, 2.9, 6.2]
        assert phi_many(us, ctx) == [phi(u, ctx) for u in us]

    @pytest.mark.parametrize("kappa", [0.9999, 1.0 - 1e-6])
    def test_scalar_matches_many_near_one(self, kappa):
        ctx = make_context(kappa)
        omega = omega_three_ways(ctx)[0]
        us = [2.0 * omega * i / 40 for i in range(41)]
        assert phi_many(us, ctx) == [phi(u, ctx) for u in us]

    def test_phi_many_against_mpmath_nearest_one(self):
        kappa = 1.0 - 1e-9
        ctx = make_context(kappa)
        omega = ctx.lattice.periods.half_real
        us = [-3 * omega + 7 * omega * i / 13 for i in range(14)]
        got = phi_many(us, ctx)
        with mpmath.workdps(30):
            k2 = mpmath.mpf(kappa) ** 2

            def f(t):
                c = mpmath.sqrt(1 - k2 * mpmath.sin(t) ** 2)
                return mpmath.sqrt((1 + c) / 2) / c

            half = mpmath.pi / 2
            two_omega = mpmath.pi * mpmath.hyp2f1(0.25, 0.75, 1, k2)

            def u_of(T):
                # T in [0, pi]; no quadrature runs across the peak at pi/2
                if T <= half:
                    return mpmath.quad(f, [0, T])
                return two_omega - mpmath.quad(f, [T, mpmath.pi])

            for u, T_float in zip(us, got):
                wraps = mpmath.floor(u / two_omega)
                u0 = u - wraps * two_omega
                # Newton on u(T) = u0; the float value only seeds it
                T = T_float - wraps * mpmath.pi
                for _ in range(20):
                    step = (u_of(T) - u0) / f(T)
                    T -= step
                    if abs(step) < mpmath.mpf(10) ** -25:
                        break
                else:
                    raise AssertionError(f"reference Newton stalled at u={u}")
                assert abs(T_float - (T + wraps * mpmath.pi)) <= 1e-14, u

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_against_jacobi_form(self, kappa):
        # u = -28.63 at 1 - 2^-52 is where an earlier route was off by
        # 0.092 and raised nothing
        ctx = make_context(kappa)
        omega = ctx.lattice.periods.half_real
        us = [0.0, omega, 2.0 * omega, -omega] + [3.0 * omega * (i / 30 - 1) for i in range(61)]
        if kappa == 1.0 - 2.0 ** -52:
            us.append(-28.63163922408218)
        many = phi_many(us, ctx)
        for u, got in zip(us, many):
            assert got == phi(u, ctx)
            assert abs(got - _jacobi_phi(u, kappa)) <= 1e-14, u

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_round_trip_through_forward_integral(self, pair):
        # two independent closed forms, R_F forward and p - e1 back, on one context
        for i in range(161):
            T = 2.0 * math.pi * (i / 80 - 1)
            u = forward_integral(T, pair)
            assert abs(phi(u, pair) - T) <= 4e-15 * max(1.0, abs(T)), T
            assert d_real(u, pair) == dd(u, pair).real, T

    def test_sign_flip_of_sin_phi(self, ctx):
        # sin(phi) switches sign on translation by 2 omega
        rng = random.Random(9)
        for _ in range(10):
            u = rng.uniform(-4.0, 4.0)
            s0 = math.sin(phi(u, ctx))
            s1 = math.sin(phi(u + 2 * OMEGA, ctx))
            assert abs(s1 + s0) <= 1e-10


def test_non_finite_arguments_rejected(ctx):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            forward_integral(bad, ctx)
        with pytest.raises(DomainError):
            phi(bad, ctx)
        with pytest.raises(DomainError):
            phi_many([0.5, bad], ctx)


def test_table_phi_nearest_one_matches_jacobi_form():
    kappa = 1.0 - 2.0 ** -52
    result = CliRunner().invoke(main, ["table", "phi", "--kappa", repr(kappa), "--from", "-30",
                                       "--to", "30", "--steps", "40"])
    assert result.exit_code == 0, result.output
    rows = [[float(v) for v in line.split(",")] for line in result.output.splitlines()[1:]]
    assert len(rows) == 41
    for x, _, re_f, im_f in rows:
        assert abs(re_f - _jacobi_phi(x, kappa)) <= 1e-14 and im_f == 0.0, x


def test_phi_of_huge_finite_argument(ctx):
    # the reduction by 2 omega must be exact: u - floor(u/2 omega) 2 omega is off by 2.4e257 here
    u = 1.9371377958034344e273
    assert phi(u, ctx) == pytest.approx(u * math.pi / (2 * OMEGA), rel=1e-15)
    assert phi_many([u], ctx)[0] == phi(u, ctx)


class TestDReal:
    def test_initial_value(self, ctx):
        assert d_real(0.0, ctx) == pytest.approx(1.0, abs=1e-12)

    def test_at_omega(self, ctx):
        assert d_real(OMEGA, ctx) == pytest.approx(0.8, abs=1e-10)

    def test_period(self, ctx):
        assert d_real(2 * OMEGA, ctx) == pytest.approx(1.0, abs=1e-10)
        rng = random.Random(4)
        for _ in range(10):
            u = rng.uniform(-3.0, 3.0)
            assert d_real(u + 2 * OMEGA, ctx) == pytest.approx(
                d_real(u, ctx), abs=1e-9
            )

    def test_range(self, ctx):
        rng = random.Random(6)
        for _ in range(50):
            value = d_real(rng.uniform(-2 * OMEGA, 2 * OMEGA), ctx)
            assert 0.8 - 1e-12 <= value <= 1.0 + 1e-12


class TestDD:
    def test_special_values(self, ctx):
        assert dd(OMEGA, ctx) == pytest.approx(0.8, abs=1e-10)
        assert dd(complex(OMEGA, OMEGA_PRIME), ctx) == pytest.approx(-0.8, abs=1e-9)

    def test_removable_point_at_lattice(self, ctx):
        assert dd(0.0, ctx) == 1.0
        assert dd(complex(2 * OMEGA, 0.0), ctx) == 1.0

    def test_pole_at_imaginary_half_period(self, ctx):
        with pytest.raises(PoleError):
            dd(complex(0.0, OMEGA_PRIME), ctx)

    @pytest.mark.parametrize("kappa", [1e-4, 1e-3, 1.38e-3])
    def test_near_pole_against_mpmath(self, kappa):
        # p - e3 comes from the root differences, so 1 - dd keeps its
        # relative accuracy where p -> e3 on a nearly degenerate lattice.
        # Reference: the Jacobi form on the closed-form roots,
        # dd = 1 - (1 - lam) sn^2(sqrt((1 + lam)/2) z | (1 - lam)/(1 + lam))
        small = make_context(kappa)
        pole = complex(0.0, small.lattice.periods.half_imag_mag)
        with mpmath.workdps(40):
            lam, scale, m = _jacobi(kappa)
            for distance in (1e-3, 0.01, 0.1, 0.3):
                for turn in range(8):
                    z = pole + distance * complex(math.cos(turn * math.pi / 4 + 0.1),
                                                  math.sin(turn * math.pi / 4 + 0.1))
                    sn = mpmath.ellipfun("sn", scale * mpmath.mpc(z), m=m)
                    ref = complex(1 - (1 - lam) * sn ** 2)
                    value = dd(z, small)
                    assert abs(value - ref) <= 1e-11 * max(1.0, abs(value)), z

    def test_matches_real_axis_route(self, ctx):
        # on the real axis, against the Jacobi form at 40 digits
        with mpmath.workdps(40):
            lam, scale, m = _jacobi(0.6)
            for u in (0.7, 0.13, 1.9, 2.8, -1.2):
                ref = 1 - (1 - lam) * mpmath.ellipfun("sn", scale * u, m=m) ** 2
                assert abs(dd(u, ctx).real - ref) <= 1e-15
                assert dd(u, ctx).imag == 0.0

    def test_product_identity_residual(self, ctx):
        rng = random.Random(13)
        half_k2 = 0.5 * 0.36
        count = 0
        while count < 200:
            z = complex(
                rng.uniform(-OMEGA, OMEGA), rng.uniform(-OMEGA_PRIME, OMEGA_PRIME)
            )
            if abs(z) < 0.1 or abs(z - OMEGA_PRIME * 1j) < 0.1 or abs(z + OMEGA_PRIME * 1j) < 0.1:
                continue
            count += 1
            residual = abs((1.0 - dd(z, ctx)) * (1.0 / 3.0 + wp(z, ctx.lattice)) - half_k2)
            assert residual <= 1e-9

    def test_periodicity(self, ctx):
        rng = random.Random(17)
        for _ in range(20):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
            if abs(z - OMEGA_PRIME * 1j) < 0.2 or abs(z + OMEGA_PRIME * 1j) < 0.2:
                continue
            base = dd(z, ctx)
            assert abs(dd(z + 2 * OMEGA, ctx) - base) <= 1e-9
            assert abs(dd(z + 2j * OMEGA_PRIME, ctx) - base) <= 1e-9

    def test_real_axis_ode(self, ctx):
        # (d')^2 = 2 (1 - d)(d^2 - lam^2) with a central difference
        h = 1e-5
        rng = random.Random(23)
        us = sorted(rng.uniform(-2 * OMEGA, 2 * OMEGA) for _ in range(40))
        targets = []
        for u in us:
            targets.extend((u - h, u, u + h))
        phis = phi_many(targets, ctx)
        for i in range(0, len(targets), 3):
            dm, d0, dp = (
                math.sqrt(1 - 0.36 * math.sin(p) ** 2) for p in phis[i : i + 3]
            )
            deriv = (dp - dm) / (2 * h)
            assert abs(deriv ** 2 - 2 * (1 - d0) * (d0 ** 2 - 0.64)) <= 1e-7


class TestPeriods:
    def test_three_ways_agree(self, ctx):
        closed, via_integral, via_trig = omega_three_ways(ctx)
        assert closed == pytest.approx(OMEGA, abs=1e-11)
        assert abs(closed - via_integral) <= 1e-8
        assert abs(closed - via_trig) <= 1e-8
        assert abs(via_integral - via_trig) <= 1e-8

    def test_omega_prime_routes(self, ctx):
        quad = omega_prime(ctx)
        assert quad == pytest.approx(OMEGA_PRIME, abs=1e-10)
        series = math.pi / math.sqrt(2.0) * 1.199853960107822
        assert abs(quad - series) <= 1e-8
        assert abs(quad - ctx.lattice.periods.half_imag_mag) <= 1e-8

    def test_self_complementary_ratio(self):
        ctx = make_context(1.0 / math.sqrt(2.0))
        pp = ctx.lattice.periods
        assert pp.half_imag_mag / pp.half_real == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert omega_prime(ctx) / omega_three_ways(ctx)[0] == pytest.approx(
            math.sqrt(2.0), abs=1e-9
        )

    def test_ratio_at_06(self, ctx):
        pp, mod = ctx.lattice.periods, ctx.modulus
        ratio = pp.half_imag_mag / pp.half_real
        assert ratio == pytest.approx(1.5634019226961116, abs=1e-12)
        # agrees with the closed form sqrt(2) F(lam^2)/F(kappa^2)
        assert ratio == pytest.approx(
            math.sqrt(2.0) * complete_f(mod.lam, mod.kappa) / complete_f(mod.kappa, mod.lam),
            abs=1e-9,
        )
