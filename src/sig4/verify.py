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
failed row that names the error; the remaining identities still run.

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

from .dd import DDContext, Modulus, dd, forward_integral, make_context, phi_many
from .hypergeometric import complete_f
from .numerics import DomainError, Interval, PoleError, integrate
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
    Y4Context,
    make_y4_context,
    y4_minus,
    y4_plus,
    y4_zero_ivp_solution,
    y4_zeros_poles,
)

_MARGIN_FRAC = 0.05   # pole-avoidance margin, fraction of the shortest half-period
_FD_STEP_REAL = 1e-5  # step for the real-axis equation of d


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


def _half_period_integral(cos_a: float, sin_a: float, tol: float) -> float:
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

    head = integrate(f, Interval(0.0, cos_a), tol)
    rest = integrate(tail, Interval(math.log(cos_a), math.log(0.5 * math.pi)), tol)
    return (head + rest) / math.sqrt(2.0)


def omega_three_ways(mod: Modulus, tol: float = 1e-12) -> tuple[float, float, float]:
    """The real half-period by three independent routes.

    closed:       (pi/2) 2F1(1/4,3/4;1;kappa^2), by the AGM closed form
    via_integral: the forward integral at pi/2, by Carlson's R_F
    via_trig:     sqrt(2) int_0^alpha cos(t/2)/sqrt(cos 2t - cos 2 alpha) dt,
                  alpha = arcsin(kappa), by tanh-sinh quadrature to ``tol``
                  of the substituted integrand (cos alpha, sin alpha = lam, kappa)
    """
    closed = 0.5 * math.pi * complete_f(mod.kappa, mod.lam)
    via_integral = forward_integral(0.5 * math.pi, mod)
    via_trig = math.sqrt(2.0) * _half_period_integral(mod.lam, mod.kappa, tol)
    return closed, via_integral, via_trig


def omega_prime(mod: Modulus, tol: float = 1e-12) -> float:
    """Magnitude of the imaginary half-period, by quadrature.

    Computed as 2 int_0^beta cos(t/2)/sqrt(cos 2t - cos 2 beta) dt with
    beta = pi/2 - arcsin(kappa), so (cos beta, sin beta) = (kappa, lam); it
    also equals (pi/sqrt2) 2F1(1/4,3/4;1;lam^2), that is
    (pi/sqrt2) complete_f(lam, kappa), and the lattice route,
    ``make_context(kappa).lattice.periods``, gives the same number.
    """
    return 2.0 * _half_period_integral(mod.kappa, mod.lam, tol)


# ----------------------------------------------------------------------
# the y4 lattice in its own frame, a second route to what y4 reads


def y4_lattice(yctx: Y4Context) -> Lattice:
    """The p-lattice of the Chebyshev quartic, from its own closed forms.

    G2 = (16/3)(1 + 3 lam^2), G3 = (64/27)(1 - 9 lam^2) and
    E = (4/3, 2 lam - 2/3, -2/3 - 2 lam), so E1 - E2 = 2 kappa^2/(1 + lam),
    E1 - E3 = 2 (1 + lam) and E2 - E3 = 4 lam.  Production never builds
    it: y4 reads P(z) = -4 p(2iz) off the dd lattice.
    """
    kappa, lam = yctx.kappa, yctx.lam
    lam2 = lam * lam
    inv = Invariants(16.0 / 3.0 * (1.0 + 3.0 * lam2), 64.0 / 27.0 * (1.0 - 9.0 * lam2))
    roots = MidpointTriple(4.0 / 3.0, 2.0 * lam - 2.0 / 3.0, -2.0 / 3.0 - 2.0 * lam)
    gaps = (2.0 * kappa * kappa / (1.0 + lam), 2.0 * (1.0 + lam), 4.0 * lam)
    return build_lattice(inv, roots, *gaps)


# ----------------------------------------------------------------------
# single-point residuals for the cross-function relations


def check_pP(z: complex, kappa: float) -> float:
    """|P(z) + 4 p(2iz)|: the quarter-turn relation between the lattices."""
    ctx = make_context(kappa)
    return _pP(ctx, y4_lattice(make_y4_context(ctx.modulus)), z)


def _pP(ctx: DDContext, ylat: Lattice, z: complex) -> float:
    return abs(wp(z, ylat) + 4.0 * wp(2j * z, ctx.lattice))


def check_ddy4(z: complex, kappa: float) -> float:
    """Residual of dd(2iz) = 1 + kappa (y4p(z) - mu)/(y4p(z) + mu), multiplied out:
    |(dd(2iz) - 1)(y + mu) - kappa (y - mu)|/(|y| + mu), y = y4_plus(z) in its own frame."""
    ctx = make_context(kappa)
    yctx = make_y4_context(ctx.modulus)
    return _ddy4(ctx, yctx, y4_lattice(yctx), z)


def _ddy4(ctx: DDContext, yctx: Y4Context, ylat: Lattice, z: complex) -> float:
    kappa, mu = yctx.kappa, yctx.mu_plus
    y = mobius(z, ylat, 1, 2.0 * kappa, mu, 4.0 * kappa * mu)   # y4_plus in the y4 frame
    return abs((dd(2j * z, ctx) - 1.0) * (y + mu) - kappa * (y - mu)) / (abs(y) + mu)


def check_ooOO(kappa: float) -> tuple[float, float]:
    """Period transfer residuals |Omega - (pi/(2 sqrt2)) F(lam^2)| and
    ||Omega'| - (pi/4) F(kappa^2)|: the y4 half-periods that y4 reads off
    the dd lattice against the AGM closed forms of |omega'|/2 and omega/2."""
    mod = make_context(kappa).modulus
    ypp = make_y4_context(mod).periods
    res1 = abs(ypp.half_real - math.pi / (2.0 * math.sqrt(2.0)) * complete_f(mod.lam, mod.kappa))
    res2 = abs(ypp.half_imag_mag - 0.25 * math.pi * complete_f(mod.kappa, mod.lam))
    return res1, res2


def check_final_remark(z: complex, kappa: float) -> float:
    """Residual of dd(z) = 1 - 2 y4p(z/sqrt8 + zero point)^2.

    Here y4_plus is built with kappa itself as the quartic parameter, so
    its initial value is sqrt((1 + lam)/2) and its zero shift absorbs the
    initial condition dd(0) = 1.
    """
    ctx = make_context(kappa)
    yctx = make_y4_context(kappa)
    zero, _ = y4_zeros_poles(yctx)
    w = y4_plus(z / math.sqrt(8.0) + zero, yctx)
    return abs(dd(z, ctx) - (1.0 - 2.0 * w * w))


# ----------------------------------------------------------------------
# per-identity suite runners: SuiteInputs -> (samples, max residual, worst z)


class SuiteInputs:
    """What the runners of one ``run_suite`` call read.

    ``ylat`` is the y4 lattice in its own frame (``y4_lattice``);
    ``rng`` is one stream that the runners consume in registry order;
    ``omegas`` is computed on first use and shared by the omega rows.
    A plain class, unlike the NamedTuple value records: ``cached_property`` needs a ``__dict__``.
    """

    def __init__(self, ctx: DDContext, yctx: Y4Context, ylat: Lattice, n: int, rng: Lcg64):
        self.ctx, self.yctx, self.ylat, self.n, self.rng = ctx, yctx, ylat, n, rng

    @cached_property
    def omegas(self) -> tuple[float, float, float]:
        return omega_three_ways(self.ctx.modulus, tol=1e-13)


def _worse(worst, worst_z, r, z, ties=True):
    """The worse (residual, z); (r, z) wins a tie if ``ties``; NaN beats all but an earlier NaN."""
    keep = worst != worst or (r < worst if ties else r <= worst)
    return (worst, worst_z) if keep else (r, z)


def _sampled_max(n, rng, pp, avoid, residual_at):
    worst, worst_z = 0.0, None
    for _ in range(n):
        for _attempt in range(128):
            z = _draw(rng, pp, avoid)
            try:
                r = residual_at(z)
            except PoleError:
                continue
            break
        else:
            raise RuntimeError("sampling kept hitting poles; cell misconfigured?")
        worst, worst_z = _worse(worst, worst_z, r, z)
    return n, worst, worst_z


def _with_unplaced(result, residual):
    """Fold a residual taken at no sample point into a sampled result; the sample wins a tie."""
    samples, worst, worst_z = result
    return (samples, *_worse(worst, worst_z, residual, None, ties=False))


def _run_d_ode(s: SuiteInputs):
    """(d')^2 = 2 (1-d)(d^2 - lam^2) on the real axis, d' by central difference."""
    mod = s.ctx.modulus
    omega = s.ctx.lattice.periods.half_real
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
    phis = phi_many(targets, mod)
    k2 = mod.kappa ** 2
    lam2 = mod.lam ** 2

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
    pp = ctx.lattice.periods
    poles = (complex(0.0, pp.half_imag_mag), complex(0.0, -pp.half_imag_mag))

    def residual(z: complex) -> float:
        return abs((1.0 - dd(z, ctx)) * (1.0 / 3.0 + wp(z, ctx.lattice)) - half_k2)

    return _sampled_max(s.n, s.rng, pp, poles, residual)


def _run_omega_trig_vs_forward(s: SuiteInputs):
    _, via_integral, via_trig = s.omegas
    return 1, abs(via_trig - via_integral), None


def _run_omega_trig_vs_series(s: SuiteInputs):
    closed, _, via_trig = s.omegas
    return 1, abs(via_trig - closed), None


def _run_omega_prime_routes(s: SuiteInputs):
    """|omega'| by the trigonometric integral, the AGM closed form and the lattice."""
    mod = s.ctx.modulus
    quad = omega_prime(mod, tol=1e-13)
    closed = math.pi / math.sqrt(2.0) * complete_f(mod.lam, mod.kappa)
    lattice = s.ctx.lattice.periods.half_imag_mag
    return 1, max(abs(quad - closed), abs(quad - lattice)), None


def _y4_ode_residual(y: complex, z: complex, yctx: Y4Context, ylat: Lattice) -> float:
    """Relative residual of (y')^2 = 8y^4 - 8y^2 + 2 lam^2, for y = y4_plus(z).

    y' comes from the chain rule through P' on the y4 lattice ``ylat``:
    y = mu (1 + 4 kappa/(P - c)) gives y' = -4 kappa mu P'/(P - c)^2, and
    with P - c = 4 kappa mu/(y - mu) that is y' = -P' (y - mu)^2 / (4 kappa mu).
    """
    mu = yctx.mu_plus
    deriv = -wp_prime(z, ylat) * (y - mu) ** 2 / (4.0 * yctx.kappa * mu)
    y2 = y * y
    rhs = 8.0 * y2 * y2 - 8.0 * y2 + 2.0 * yctx.lam ** 2
    return abs(deriv * deriv - rhs) / (1.0 + abs(y) ** 4)


def _run_y4_ode(s: SuiteInputs):
    """(y')^2 = 8y^4 - 8y^2 + 2 lam^2 for y4_plus, y' through p'."""
    yctx = s.yctx
    pp = yctx.periods
    half = 0.5 * pp.half_real
    poles = (complex(half, 0.0), complex(-half, 0.0))

    def residual(z: complex) -> float:
        return _y4_ode_residual(y4_plus(z, yctx), z, yctx, s.ylat)

    return _sampled_max(s.n, s.rng, pp, poles, residual)


def _run_y4_shifts(s: SuiteInputs):
    """Half-period shifts: +Omega negates, +Omega' swaps to the mu_minus branch."""
    yctx = s.yctx
    pp = yctx.periods
    hr, hi = pp.half_real, pp.half_imag_mag
    half = 0.5 * hr
    avoid = tuple(
        complex(sr * half, si * hi)
        for sr in (-1.0, 1.0)
        for si in (-1.0, 0.0, 1.0)
    )

    def residual(z: complex) -> float:
        base_p = y4_plus(z, yctx)
        base_m = y4_minus(z, yctx)
        r1 = abs(y4_plus(z + hr, yctx) + base_p)
        r2 = abs(y4_plus(z + complex(0.0, hi), yctx) - base_m)
        r3 = abs(y4_plus(z + complex(hr, hi), yctx) + base_m)
        return max(r1, r2, r3)

    return _sampled_max(s.n, s.rng, pp, avoid, residual)


def _run_y4_zero_pole(s: SuiteInputs):
    """Zero at half_real/2 + imaginary half-period; pole value of P at half_real/2."""
    yctx = s.yctx
    zero, pole = y4_zeros_poles(yctx)
    r_zero = abs(y4_plus(zero, yctx))
    pole_value = 4.0 / 3.0 + 2.0 * yctx.kappa
    r_pole = abs(wp(pole, s.ylat) - pole_value)
    return 2, max(r_zero, r_pole), None


def _run_y4_zero_start(s: SuiteInputs):
    """The zero-shifted translate solves the quartic equation with y(0) = 0."""
    yctx = s.yctx
    pp = yctx.periods
    zero, _ = y4_zeros_poles(yctx)
    # pole images of the translate in the sampled cell, in the shifted coordinate
    avoid = tuple(
        complex(sr * pp.half_real, si * pp.half_imag_mag)
        for sr in (-1.0, 0.0, 1.0)
        for si in (-1.0, 1.0)
    )

    def residual(z: complex) -> float:
        return _y4_ode_residual(y4_zero_ivp_solution(z, yctx), z + zero, yctx, s.ylat)

    samples, worst, worst_z = _sampled_max(s.n, s.rng, pp, avoid, residual)
    return (samples + 1, *_worse(worst, worst_z, abs(y4_zero_ivp_solution(0.0, yctx)), 0j))


def _run_wp_quarter_turn(s: SuiteInputs):
    """P(z) = -4 p(2iz), P on the y4 lattice, plus the exact invariant scaling (2i)^4, (2i)^6."""
    inv, yinv = s.ctx.lattice.invariants, s.ylat.invariants
    scale_res = max(abs(16.0 * inv.g2 - yinv.g2), abs(-64.0 * inv.g3 - yinv.g3))
    sampled = _sampled_max(s.n, s.rng, s.yctx.periods, (), partial(_pP, s.ctx, s.ylat))
    return _with_unplaced(sampled, scale_res)


def _run_dd_y4_bridge(s: SuiteInputs):
    """dd(2iz) = 1 + kappa (y4p - mu)/(y4p + mu), multiplied out, y4p in its own frame."""
    pp = s.yctx.periods
    half = 0.5 * pp.half_real
    avoid = (
        complex(half, 0.0),
        complex(-half, 0.0),
        complex(pp.half_real, 0.0),
        complex(-pp.half_real, 0.0),
    )
    return _sampled_max(s.n, s.rng, pp, avoid, partial(_ddy4, s.ctx, s.yctx, s.ylat))


def _run_period_transfer(s: SuiteInputs):
    res1, res2 = check_ooOO(s.ctx.modulus.kappa)
    return 2, max(res1, res2), None


def dd_equation_quartic(lam: float) -> QuarticCoefficients:
    """2 (1 - w)(w^2 - lam^2) in binomial normalization (cubic: a0 = 0)."""
    lam2 = lam * lam
    return QuarticCoefficients(0.0, -0.5, 1.0 / 3.0, 0.5 * lam2, -2.0 * lam2)


def y4_equation_quartic(lam: float) -> QuarticCoefficients:
    """8 w^4 - 8 w^2 + 2 lam^2 in binomial normalization."""
    return QuarticCoefficients(8.0, 0.0, -4.0 / 3.0, 0.0, 2.0 * lam * lam)


def _run_quartic_ivp_dd(s: SuiteInputs):
    """General quartic solver applied to the dd equation reproduces dd."""
    ctx = s.ctx
    q = dd_equation_quartic(ctx.modulus.lam)
    solution, inv = solve_quartic_ivp(q, 1.0)
    ref = ctx.lattice.invariants
    inv_res = max(abs(inv.g2 - ref.g2), abs(inv.g3 - ref.g3))
    pp = ctx.lattice.periods
    poles = (complex(0.0, pp.half_imag_mag), complex(0.0, -pp.half_imag_mag))

    def residual(z: complex) -> float:
        return abs(solution(z) - dd(z, ctx))

    return _with_unplaced(_sampled_max(min(s.n, 50), s.rng, pp, poles, residual), inv_res)


def _run_quartic_ivp_y4(s: SuiteInputs):
    """General quartic solver applied to the Chebyshev equation reproduces y4_plus."""
    yctx = s.yctx
    q = y4_equation_quartic(yctx.lam)
    solution, inv = solve_quartic_ivp(q, yctx.mu_plus)
    ref = s.ylat.invariants
    inv_res = max(abs(inv.g2 - ref.g2), abs(inv.g3 - ref.g3))
    pp = yctx.periods
    half = 0.5 * pp.half_real
    poles = (complex(half, 0.0), complex(-half, 0.0))

    def residual(z: complex) -> float:
        return abs(solution(z) - y4_plus(z, yctx))

    return _with_unplaced(_sampled_max(min(s.n, 50), s.rng, pp, poles, residual), inv_res)


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
    the run goes on; only a context that cannot be built aborts it.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    start = time.perf_counter()
    try:
        ctx = make_context(kappa)
    except Exception as exc:
        raise RuntimeError(f"context construction failed at stage 'dd': {exc}") from exc
    try:
        yctx = make_y4_context(ctx.modulus)
        ylat = y4_lattice(yctx)
    except Exception as exc:
        raise RuntimeError(f"context construction failed at stage 'y4': {exc}") from exc

    suite = SuiteInputs(ctx, yctx, ylat, n_samples, Lcg64(seed))
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
