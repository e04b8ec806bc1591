"""Batch numerical verification of the package's defining identities.

Every structural fact the library relies on is expressed as a residual
that should vanish: differential equations, half-period shift laws,
zero/pole locations, the quarter-turn relation between the two
Weierstrass functions, the Moebius bridge between dd and y4_plus, period
transfers, and the quartic initial-value solver reproducing both function
families.  ``run_suite`` samples the relevant fundamental cells, records
the worst residual per identity with the sample that gave it and the
time taken, and assembles a report that is deterministic apart from the
times.  An identity whose runner raises a numerical error becomes a
failed row that names the error, also for a PoleError at a sampled
point, which is not redrawn; the remaining identities still run.

Production code computes each quantity one way, in closed form, on one
lattice per modulus: p - e_j as a squared theta quotient on the dd
lattice, dd, phi and y4 (at 2iz) from it, the forward integral by
Carlson's R_F and the complete values by the AGM.  The independent second
routes live here:

* the y4 lattice built from its own invariants G2, G3 and roots E_j
  (``y4_lattice``), which gives P, P' and y4_plus in the y4 frame;
* the half-periods as the forward integrand in Legendre's variable under
  tanh-sinh quadrature (``omega_three_ways``, ``omega_prime``);
* phi through its differential equation by central differences.

Every route and check takes the pair's ``DDContext``, and its ``y4_lattice``
where it reads the y4 frame; ``run_suite`` alone builds them, from kappa.

Each sampled row draws from one of two centered cells, both read off the
dd lattice: the dd cell (omega, |omega'|) or the y4 cell (Omega, |Omega'|)
= (|omega'|/2, omega/2).  ``SuiteInputs`` states the two pole sets that
rows avoid, +-i|omega'| for dd and +-Omega/2 for y4_plus; a row that must
avoid other points names them beside its residual.

Sampling uses a self-contained 64-bit linear congruential generator
(state' = state * 6364136223846793005 + 1442695040888963407 mod 2^64,
uniform doubles from the top 53 bits) so that a (kappa, n, seed, tol)
quadruple reproduces bit-identical residuals anywhere.
"""

from __future__ import annotations

import math
import time
from functools import cached_property, partial
from typing import NamedTuple

from .dd import DDContext, dd, forward_integral, make_context, phi_many
from .hypergeometric import complete_f
from .numerics import DomainError, Interval, integrate
from .quartic import QuarticCoefficients, solve_quartic_ivp
from .weierstrass import (
    Invariants,
    Lattice,
    MidpointTriple,
    PeriodPair,
    build_lattice,
    mobius,
    wp,
    wp_prime,
)
from .y4 import (
    make_y4_context,
    y4_minus,
    y4_periods,
    y4_plus,
    y4_zero_ivp_solution,
    y4_zeros_poles,
)

_MARGIN_FRAC = 0.05   # pole-avoidance margin, fraction of the shortest half-period
_FD_STEP_REAL = 1e-5  # step for the real-axis equation of d
_QUAD_TOL = 1e-13     # absolute tolerance of the half-period quadratures


class Lcg64:
    """Deterministic 64-bit linear congruential generator."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return self._state

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def point(self, hr: float, hi: float) -> complex:
        """complex(uniform(-hr, hr), uniform(-hi, hi)): both draws, in that order, in one call."""
        re = self._state = (self._state * self._MULT + self._INC) & self._MASK
        im = self._state = (re * self._MULT + self._INC) & self._MASK
        return complex(-hr + 2.0 * hr * (re >> 11) * (1.0 / (1 << 53)),
                       -hi + 2.0 * hi * (im >> 11) * (1.0 / (1 << 53)))


class IdentityCheck(NamedTuple):
    """Outcome of one identity: worst residual over its samples.

    ``worst_z`` is the sample that gave ``max_residual``, None when the
    runner does not sample or its worst residual is not taken at a point;
    ``elapsed_ms`` is the runner's own time.  A runner that raised leaves
    ``max_residual`` None, ``passed`` False and the exception, as
    'TypeName: message', in ``error``.
    """

    name: str
    samples: int
    max_residual: float | None
    tolerance: float
    passed: bool
    elapsed_ms: float
    worst_z: complex | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        """The row as strict JSON values: a NaN residual is null with "nan": true."""
        z = self.worst_z
        row = {
            "name": self.name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "worst_z": None if z is None else [z.real, z.imag],
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.max_residual != self.max_residual:
            row.update(max_residual=None, nan=True)
        if self.error is not None:
            row["error"] = self.error
        return row


class VerificationReport(NamedTuple):
    kappa: float
    seed: int
    tol: float
    checks: tuple[IdentityCheck, ...]
    wall_time_ms: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return dict(self._asdict(), checks=[c.to_json_dict() for c in self.checks])


def _draw(rng: Lcg64, pp: PeriodPair, avoid: tuple[complex, ...] = ()) -> complex:
    """Uniform point of the centered fundamental cell, away from 0 and the listed points."""
    hr, hi = pp
    margin = _MARGIN_FRAC * min(hr, hi)
    avoid = (0j,) + avoid
    while True:
        z = rng.point(hr, hi)
        for a in avoid:
            if abs(z - a) < margin:
                break
        else:
            return z


# ----------------------------------------------------------------------
# the half-periods by trigonometric quadrature, independent of the lattice


def _half_period_integral(cos_a: float, sin_a: float) -> float:
    """int_0^a cos(t/2)/sqrt(cos 2t - cos 2a) dt, given cos a and sin a exactly.

    Under sin t = sin a cos theta the inverse square root cancels and the
    integral becomes (1/sqrt2) int_0^(pi/2) sqrt((1 + c)/2)/c dtheta with
    c = cos t = hypot(cos a, sin a sin theta): the forward integral's
    integrand in Legendre's variable, numerically independent of R_F and
    the AGM.  Its near-singularity of width cos a sits at theta = 0, so the
    range is cut at theta = cos a and the tail integrated in s = ln theta,
    where the integrand times theta is smooth and bounded; that holds to a
    few ulps from cos a = 1e-300 to 1.
    """

    def f(theta: float) -> float:
        c = math.hypot(cos_a, sin_a * math.sin(theta))
        return math.sqrt(0.5 * (1.0 + c)) / c

    def tail(s: float) -> float:
        theta = math.exp(s)
        return f(theta) * theta

    head = integrate(f, Interval(0.0, cos_a), _QUAD_TOL)
    rest = integrate(tail, Interval(math.log(cos_a), math.log(0.5 * math.pi)), _QUAD_TOL)
    return (head + rest) / math.sqrt(2.0)


def omega_three_ways(ctx: DDContext) -> tuple[float, float, float]:
    """The real half-period of the pair ``ctx`` by three independent routes.

    closed:       (pi/2) 2F1(1/4,3/4;1;kappa^2), by the AGM closed form
    via_integral: the forward integral at pi/2, by Carlson's R_F
    via_trig:     sqrt(2) int_0^alpha cos(t/2)/sqrt(cos 2t - cos 2 alpha) dt,
                  alpha = arcsin(kappa), by tanh-sinh quadrature to ``_QUAD_TOL``
                  of the substituted integrand (cos alpha, sin alpha = lam, kappa)
    """
    kappa, lam = ctx.modulus
    closed = 0.5 * math.pi * complete_f(kappa, lam)
    via_integral = forward_integral(0.5 * math.pi, ctx)
    via_trig = math.sqrt(2.0) * _half_period_integral(lam, kappa)
    return closed, via_integral, via_trig


def omega_prime(ctx: DDContext) -> float:
    """Magnitude of the imaginary half-period of the pair ``ctx``, by quadrature.

    Computed as 2 int_0^beta cos(t/2)/sqrt(cos 2t - cos 2 beta) dt with
    beta = pi/2 - arcsin(kappa), so (cos beta, sin beta) = (kappa, lam); it
    also equals (pi/sqrt2) 2F1(1/4,3/4;1;lam^2), that is
    (pi/sqrt2) complete_f(lam, kappa), and the lattice route,
    ``ctx.lattice.periods.half_imag_mag``, gives the same number.
    """
    kappa, lam = ctx.modulus
    return 2.0 * _half_period_integral(kappa, lam)


# ----------------------------------------------------------------------
# the y4 lattice in its own frame, a second route to what y4 reads


def y4_lattice(ctx: DDContext) -> Lattice:
    """The p-lattice of the Chebyshev quartic, from its own closed forms.

    G2 = (16/3)(1 + 3 lam^2), G3 = (64/27)(1 - 9 lam^2) and
    E = (4/3, 2 lam - 2/3, -2/3 - 2 lam), so E1 - E2 = 2 kappa^2/(1 + lam),
    E1 - E3 = 2 (1 + lam) and E2 - E3 = 4 lam.  Production never builds
    it: y4 reads P(z) = -4 p(2iz) off the dd lattice.
    """
    kappa, lam = ctx.modulus
    lam2 = lam * lam
    inv = Invariants(16.0 / 3.0 * (1.0 + 3.0 * lam2), 64.0 / 27.0 * (1.0 - 9.0 * lam2))
    roots = MidpointTriple(4.0 / 3.0, 2.0 * lam - 2.0 / 3.0, -2.0 / 3.0 - 2.0 * lam)
    gaps = (2.0 * kappa * kappa / (1.0 + lam), 2.0 * (1.0 + lam), 4.0 * lam)
    return build_lattice(inv, roots, *gaps)


# ----------------------------------------------------------------------
# residuals for the cross-function relations; ``ylat`` is ``y4_lattice(ctx)``


def check_pP(ctx: DDContext, ylat: Lattice, z: complex) -> float:
    """|P(z) + 4 p(2iz)|, P on ``ylat`` and p on the lattice of ``ctx``: the quarter turn."""
    return abs(wp(z, ylat) + 4.0 * wp(2j * z, ctx.lattice))


def check_ddy4(ctx: DDContext, ylat: Lattice, z: complex) -> float:
    """Residual of dd(2iz) = 1 + kappa (y4p(z) - mu)/(y4p(z) + mu), multiplied out:
    |(dd(2iz) - 1)(y + mu) - kappa (y - mu)|/(|y| + mu), y = y4_plus(z) on ``ylat``."""
    kappa, mu = ctx.modulus.kappa, ctx.mu_plus
    y = mobius(z, ylat, 1, 2.0 * kappa, mu, 4.0 * kappa * mu)   # y4_plus in the y4 frame
    return abs((dd(2j * z, ctx) - 1.0) * (y + mu) - kappa * (y - mu)) / (abs(y) + mu)


def check_ooOO(ctx: DDContext) -> tuple[float, float]:
    """Period transfer residuals |Omega - (pi/(2 sqrt2)) F(lam^2)| and
    ||Omega'| - (pi/4) F(kappa^2)|: the y4 half-periods that y4 reads off
    the lattice of ``ctx`` against the AGM closed forms of |omega'|/2 and omega/2."""
    (kappa, lam), ypp = ctx.modulus, y4_periods(ctx)
    res1 = abs(ypp.half_real - math.pi / (2.0 * math.sqrt(2.0)) * complete_f(lam, kappa))
    res2 = abs(ypp.half_imag_mag - 0.25 * math.pi * complete_f(kappa, lam))
    return res1, res2


def check_final_remark(ctx: DDContext, z: complex) -> float:
    """Residual of dd(z) = 1 - 2 y4p(z/sqrt8 + zero point)^2, dd on the pair ``ctx``.

    Here y4_plus is built with kappa itself as the quartic parameter, so
    its initial value is sqrt((1 + lam)/2) and its zero shift absorbs the
    initial condition dd(0) = 1.
    """
    swapped = make_y4_context(ctx.modulus.kappa)   # the pair (lam, kappa)
    zero, _ = y4_zeros_poles(swapped)
    w = y4_plus(z / math.sqrt(8.0) + zero, swapped)
    return abs(dd(z, ctx) - (1.0 - 2.0 * w * w))


# ----------------------------------------------------------------------
# per-identity suite runners: SuiteInputs -> (samples, max residual, worst z)


class SuiteInputs:
    """What the runners of one ``run_suite`` call read.

    ``cell`` is the dd cell (omega, |omega'|) and ``ycell`` the y4 cell
    (Omega, |Omega'|); ``DD_POLES`` (+-i|omega'|) and ``Y4_POLES``
    (+-Omega/2) are the poles of dd and y4_plus in them, as the (reals,
    imags) that ``sample`` takes.  ``ylat`` is the y4 lattice in its own
    frame (``y4_lattice``); ``rng`` is one stream that the runners consume
    in registry order; ``omegas`` is computed on first use and shared by
    the omega rows.  A plain class, unlike the NamedTuple value records:
    ``cached_property`` needs a ``__dict__``.
    """

    DD_POLES = ((0.0,), (1.0, -1.0))
    Y4_POLES = ((0.5, -0.5), (0.0,))

    def __init__(self, ctx: DDContext, ylat: Lattice, n: int, rng: Lcg64):
        self.ctx, self.ylat, self.n, self.rng = ctx, ylat, n, rng
        self.cell, self.ycell = ctx.lattice.periods, y4_periods(ctx)

    @cached_property
    def omegas(self) -> tuple[float, float, float]:
        return omega_three_ways(self.ctx)

    def sample(self, cell: PeriodPair, reals, imags, residual, n: int | None = None):
        """(samples, worst residual, its z) over ``n`` (default ``self.n``) draws from
        ``cell`` = (hr, hi), away from 0 and each (r hr, i hi), r in ``reals``, i in ``imags``;
        a PoleError of ``residual`` propagates, so it fails the row."""
        hr, hi = cell
        avoid = tuple(complex(r * hr, i * hi) for r in reals for i in imags)
        n = self.n if n is None else n
        worst, worst_z = 0.0, None
        for _ in range(n):
            z = _draw(self.rng, cell, avoid)
            worst, worst_z = _worse(worst, worst_z, residual(z), z)
        return n, worst, worst_z


def _worse(worst, worst_z, r, z, ties=True):
    """The worse (residual, z); (r, z) wins a tie if ``ties``; NaN beats all but an earlier NaN."""
    keep = worst != worst or (r < worst if ties else r <= worst)
    return (worst, worst_z) if keep else (r, z)


def _with_unplaced(result, residual):
    """Fold a residual taken at no sample point into a sampled result; the sample wins a tie."""
    samples, worst, worst_z = result
    return (samples, *_worse(worst, worst_z, residual, None, ties=False))


def _run_d_ode(s: SuiteInputs):
    """(d')^2 = 2 (1-d)(d^2 - lam^2) on the real axis, d' by central difference."""
    ctx = s.ctx
    omega = s.cell.half_real
    h = _FD_STEP_REAL
    us = []
    while len(us) < s.n:
        u = s.rng.uniform(-2.0 * omega, 2.0 * omega)
        # keep the difference stencil inside one quasi-period branch
        if abs(u - 2.0 * omega * round(u / (2.0 * omega))) < 1e-3:
            continue
        us.append(u)
    targets = []
    for u in us:
        targets.extend((u - h, u, u + h))
    phis = phi_many(targets, ctx)
    k2 = ctx.modulus.kappa ** 2
    lam2 = ctx.modulus.lam ** 2

    def d_of(p: float) -> float:
        return math.sqrt(1.0 - k2 * math.sin(p) ** 2)

    worst, worst_z = 0.0, None
    for i in range(0, len(targets), 3):
        dm, d0, dp = d_of(phis[i]), d_of(phis[i + 1]), d_of(phis[i + 2])
        deriv = (dp - dm) / (2.0 * h)
        r = abs(deriv * deriv - 2.0 * (1.0 - d0) * (d0 * d0 - lam2))
        worst, worst_z = _worse(worst, worst_z, r, complex(targets[i + 1]))
    return s.n, worst, worst_z


def _run_dd_wp_product(s: SuiteInputs):
    """(1 - dd)(1/3 + p) = kappa^2 / 2 over the cell."""
    ctx = s.ctx
    half_k2 = 0.5 * ctx.modulus.kappa ** 2

    def residual(z: complex) -> float:
        return abs((1.0 - dd(z, ctx)) * (1.0 / 3.0 + wp(z, ctx.lattice)) - half_k2)

    return s.sample(s.cell, *s.DD_POLES, residual)


def _run_omega_trig_vs_forward(s: SuiteInputs):
    _, via_integral, via_trig = s.omegas
    return 1, abs(via_trig - via_integral), None


def _run_omega_trig_vs_series(s: SuiteInputs):
    closed, _, via_trig = s.omegas
    return 1, abs(via_trig - closed), None


def _run_omega_prime_routes(s: SuiteInputs):
    """|omega'| by the trigonometric integral, the AGM closed form and the lattice."""
    kappa, lam = s.ctx.modulus
    quad = omega_prime(s.ctx)
    closed = math.pi / math.sqrt(2.0) * complete_f(lam, kappa)
    lattice = s.ctx.lattice.periods.half_imag_mag
    return 1, max(abs(quad - closed), abs(quad - lattice)), None


def _y4_ode_residual(y: complex, z: complex, ctx: DDContext, ylat: Lattice) -> float:
    """Relative residual of (y')^2 = 8y^4 - 8y^2 + 2 lam^2, for y = y4_plus(z).

    y' comes from the chain rule through P' on the y4 lattice ``ylat``:
    y = mu (1 + 4 kappa/(P - c)) gives y' = -4 kappa mu P'/(P - c)^2, and
    with P - c = 4 kappa mu/(y - mu) that is y' = -P' (y - mu)^2 / (4 kappa mu).
    """
    (kappa, lam), mu = ctx.modulus, ctx.mu_plus
    deriv = -wp_prime(z, ylat) * (y - mu) ** 2 / (4.0 * kappa * mu)
    y2 = y * y
    rhs = 8.0 * y2 * y2 - 8.0 * y2 + 2.0 * lam ** 2
    return abs(deriv * deriv - rhs) / (1.0 + abs(y) ** 4)


def _run_y4_ode(s: SuiteInputs):
    """(y')^2 = 8y^4 - 8y^2 + 2 lam^2 for y4_plus, y' through p'."""
    ctx = s.ctx

    def residual(z: complex) -> float:
        return _y4_ode_residual(y4_plus(z, ctx), z, ctx, s.ylat)

    return s.sample(s.ycell, *s.Y4_POLES, residual)


def _run_y4_shifts(s: SuiteInputs):
    """Half-period shifts: +Omega negates, +Omega' swaps to the mu_minus branch."""
    ctx, (hr, hi) = s.ctx, s.ycell

    def residual(z: complex) -> float:
        base_p = y4_plus(z, ctx)
        base_m = y4_minus(z, ctx)
        r1 = abs(y4_plus(z + hr, ctx) + base_p)
        r2 = abs(y4_plus(z + complex(0.0, hi), ctx) - base_m)
        r3 = abs(y4_plus(z + complex(hr, hi), ctx) + base_m)
        return max(r1, r2, r3)

    # the poles +-Omega/2 of y4_plus and their images under both shifts
    return s.sample(s.ycell, (-0.5, 0.5), (-1.0, 0.0, 1.0), residual)


def _run_y4_zero_pole(s: SuiteInputs):
    """Zero at half_real/2 + imaginary half-period; pole value of P at half_real/2."""
    ctx = s.ctx
    zero, pole = y4_zeros_poles(ctx)
    r_zero = abs(y4_plus(zero, ctx))
    pole_value = 4.0 / 3.0 + 2.0 * ctx.modulus.kappa
    r_pole = abs(wp(pole, s.ylat) - pole_value)
    return 2, max(r_zero, r_pole), None


def _run_y4_zero_start(s: SuiteInputs):
    """The zero-shifted translate solves the quartic equation with y(0) = 0."""
    ctx = s.ctx
    zero, _ = y4_zeros_poles(ctx)

    def residual(z: complex) -> float:
        return _y4_ode_residual(y4_zero_ivp_solution(z, ctx), z + zero, ctx, s.ylat)

    # pole images of the translate in the sampled cell, in the shifted coordinate
    samples, worst, worst_z = s.sample(s.ycell, (-1.0, 0.0, 1.0), (-1.0, 1.0), residual)
    return (samples + 1, *_worse(worst, worst_z, abs(y4_zero_ivp_solution(0.0, ctx)), 0j))


def _run_wp_quarter_turn(s: SuiteInputs):
    """P(z) = -4 p(2iz), P on the y4 lattice, plus the exact invariant scaling (2i)^4, (2i)^6."""
    inv, yinv = s.ctx.lattice.invariants, s.ylat.invariants
    scale_res = max(abs(16.0 * inv.g2 - yinv.g2), abs(-64.0 * inv.g3 - yinv.g3))
    sampled = s.sample(s.ycell, (), (), partial(check_pP, s.ctx, s.ylat))
    return _with_unplaced(sampled, scale_res)


def _run_dd_y4_bridge(s: SuiteInputs):
    """dd(2iz) = 1 + kappa (y4p - mu)/(y4p + mu), multiplied out, y4p in its own frame."""
    # the poles +-Omega/2 of y4p and +-Omega, where 2iz is a pole of dd
    return s.sample(s.ycell, (0.5, -0.5, 1.0, -1.0), (0.0,), partial(check_ddy4, s.ctx, s.ylat))


def _run_period_transfer(s: SuiteInputs):
    return 2, max(check_ooOO(s.ctx)), None


def dd_equation_quartic(lam: float) -> QuarticCoefficients:
    """2 (1 - w)(w^2 - lam^2) in binomial normalization (cubic: a0 = 0)."""
    lam2 = lam * lam
    return QuarticCoefficients(0.0, -0.5, 1.0 / 3.0, 0.5 * lam2, -2.0 * lam2)


def y4_equation_quartic(lam: float) -> QuarticCoefficients:
    """8 w^4 - 8 w^2 + 2 lam^2 in binomial normalization."""
    return QuarticCoefficients(8.0, 0.0, -4.0 / 3.0, 0.0, 2.0 * lam * lam)


def _quartic_row(s: SuiteInputs, q, w0, ref: Invariants, cell, poles, target):
    """The general quartic solver for ``q`` from ``w0`` reproduces ``target``
    over ``cell``, away from ``poles``, and its invariants match ``ref``."""
    solution, inv = solve_quartic_ivp(q, w0)
    inv_res = max(abs(inv.g2 - ref.g2), abs(inv.g3 - ref.g3))

    def residual(z: complex) -> float:
        return abs(solution(z) - target(z, s.ctx))

    return _with_unplaced(s.sample(cell, *poles, residual, min(s.n, 50)), inv_res)


def _run_quartic_ivp_dd(s: SuiteInputs):
    """General quartic solver applied to the dd equation reproduces dd."""
    q = dd_equation_quartic(s.ctx.modulus.lam)
    return _quartic_row(s, q, 1.0, s.ctx.lattice.invariants, s.cell, s.DD_POLES, dd)


def _run_quartic_ivp_y4(s: SuiteInputs):
    """General quartic solver applied to the Chebyshev equation reproduces y4_plus."""
    q = y4_equation_quartic(s.ctx.modulus.lam)
    return _quartic_row(s, q, s.ctx.mu_plus, s.ylat.invariants, s.ycell, s.Y4_POLES, y4_plus)


#: fixed identity registry: (name, runner), executed and reported in this order
REGISTRY = (
    ("d-ode-real-axis", _run_d_ode),
    ("dd-wp-product", _run_dd_wp_product),
    ("omega-trig-vs-forward", _run_omega_trig_vs_forward),
    ("omega-trig-vs-series", _run_omega_trig_vs_series),
    ("omega-prime-two-routes", _run_omega_prime_routes),
    ("y4-ode", _run_y4_ode),
    ("y4-shifts", _run_y4_shifts),
    ("y4-zero-pole", _run_y4_zero_pole),
    ("y4-zero-start", _run_y4_zero_start),
    ("wp-quarter-turn", _run_wp_quarter_turn),
    ("dd-y4-bridge", _run_dd_y4_bridge),
    ("period-transfer", _run_period_transfer),
    ("quartic-ivp-dd", _run_quartic_ivp_dd),
    ("quartic-ivp-y4", _run_quartic_ivp_y4),
)

REGISTRY_NAMES = tuple(name for name, _ in REGISTRY)


def run_suite(kappa: float, n_samples: int, seed: int, tol: float) -> VerificationReport:
    """Evaluate every registered identity and report worst residuals.

    Deterministic: one LCG stream seeded with ``seed`` is consumed by the
    checks in registry order, so identical inputs give bit-identical
    residuals and sample points.  The first NaN residual and its sample become
    the row's ``max_residual`` and ``worst_z``, so the row fails.  A runner
    that raises ArithmeticError, ValueError or RuntimeError (PoleError,
    DomainError, ConvergenceError) becomes a failed check with its error and
    the run goes on; so does a PoleError at a sampled point, which is never
    redrawn.  Raises DomainError, naming the stage 'dd', for a modulus whose
    context cannot be built, and for n_samples < 1 or a tolerance outside
    (0, inf), which would pass every row and leave a report strict JSON
    cannot hold.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    start = time.perf_counter()
    try:
        ctx = make_context(kappa)
    except Exception as exc:
        raise DomainError(f"context construction failed at stage 'dd': {exc}") from exc

    suite = SuiteInputs(ctx, y4_lattice(ctx), n_samples, Lcg64(seed))
    checks = []
    for name, runner in REGISTRY:
        began = time.perf_counter()
        try:
            samples, worst, worst_z = runner(suite)
            error = None
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            samples, worst, worst_z = 0, None, None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - began) * 1e3
        passed = error is None and worst <= tol
        checks.append(IdentityCheck(name, samples, worst, tol, passed, elapsed, worst_z, error))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return VerificationReport(kappa, seed, tol, tuple(checks), elapsed_ms)
