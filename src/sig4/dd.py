"""The dd function family: the signature-four analogue of the Jacobian dn.

Construction, for a modulus kappa in (0, 1) with complement
lam = sqrt(1 - kappa^2):

* the incomplete integral  u(T) = int_0^T 2F1(1/4,3/4;1/2; kappa^2 sin^2 t) dt
  is a strictly increasing bijection of the real line; ``phi`` is its
  inverse.  The integrand is evaluated in closed form, sqrt((1+c)/2)/c
  with c = sqrt(1 - kappa^2 sin^2 t) >= lam,
* on the real axis  d(u) = cos(arcsin(kappa sin phi(u)))
                        = sqrt(1 - kappa^2 sin^2 phi(u)),
* the elliptic extension dd of d to the plane satisfies
  (1 - dd)(1/3 + p) = kappa^2 / 2 against the coperiodic Weierstrass
  function p with invariants g2 = (3 lam^2 + 1)/3, g3 = (9 lam^2 - 1)/27,
  and that product form is how ``dd`` is evaluated, on the real axis too.
  The real-axis composition ``d_real`` stays available as an independent
  cross-check route.

The real half-period omega admits three independent computations (AGM
closed form, forward integral, singular trigonometric integral), kept
separate so they can corroborate one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .hypergeometric import complete_f
from .numerics import ConvergenceError, DomainError, Interval, PoleError, integrate
from .weierstrass import Invariants, Lattice, MidpointTriple, build_lattice, wp

_PHI_TOL = 1e-12


@dataclass(frozen=True)
class Modulus:
    """Modulus bundle: kappa, complement lam, and the modular angles.

    alpha = arcsin(kappa) is the acute modular angle; beta = pi/2 - alpha
    is its complement, so sin(beta) = lam and cos(beta) = kappa.
    """

    kappa: float
    lam: float
    alpha: float
    beta: float


def make_modulus(kappa: float) -> Modulus:
    if not (0.0 < kappa < 1.0):
        raise DomainError(f"modulus must lie in (0, 1), got {kappa}")
    lam = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    alpha = math.asin(kappa)
    return Modulus(kappa, lam, alpha, 0.5 * math.pi - alpha)


@dataclass(frozen=True)
class DDContext:
    """Everything needed to evaluate dd at one modulus."""

    modulus: Modulus
    lattice: Lattice


@lru_cache(maxsize=128)
def make_context(kappa: float) -> DDContext:
    """Modulus and p-lattice for ``kappa``, from the closed-form roots.

    e = ((1 + 3 lam)/6, (1 - 3 lam)/6, -1/3), so e1 - e2 = lam,
    e1 - e3 = (1 + lam)/2 and e2 - e3 = kappa^2/(2 (1 + lam)).
    """
    mod = make_modulus(kappa)
    lam = mod.lam
    lam2 = lam * lam
    inv = Invariants((3.0 * lam2 + 1.0) / 3.0, (9.0 * lam2 - 1.0) / 27.0)
    roots = MidpointTriple((1.0 + 3.0 * lam) / 6.0, (1.0 - 3.0 * lam) / 6.0, -1.0 / 3.0)
    gaps = (lam, 0.5 * (1.0 + lam), kappa * kappa / (2.0 * (1.0 + lam)))
    return DDContext(mod, build_lattice(inv, roots, *gaps))


def _integrand(mod: Modulus):
    """2F1(1/4,3/4;1/2; kappa^2 sin^2 t) = sqrt((1+c)/2)/c.

    c = sqrt(1 - kappa^2 sin^2 t) is formed as hypot(lam, kappa cos t),
    free of cancellation as kappa -> 1.
    """
    kappa, lam = mod.kappa, mod.lam

    def f(t: float) -> float:
        c = math.hypot(lam, kappa * math.cos(t))
        return math.sqrt(0.5 * (1.0 + c)) / c

    return f


def forward_integral(T: float, mod: Modulus, tol: float = 1e-13) -> float:
    """The incomplete integral u(T); odd and strictly increasing in T.

    The range is split at multiples of pi/2 so each quadrature panel sees
    a single smooth hump of the integrand.
    """
    if T == 0.0:
        return 0.0
    f = _integrand(mod)
    upper = abs(T)
    panels = max(1, math.ceil(upper / (0.5 * math.pi) - 1e-12))
    panel_tol = tol / panels
    total = 0.0
    for k in range(panels):
        lo = 0.5 * math.pi * k
        hi = min(0.5 * math.pi * (k + 1), upper)
        if hi > lo:
            total += integrate(f, Interval(lo, hi), panel_tol)
    return math.copysign(total, T)


class _PhiWalker:
    """Newton continuation along the strictly increasing map u(T).

    Maintains the pair (T, u(T)) and advances it to successive targets.
    Large steps are integrated with the quadrature; once a step drops
    under 1e-7 the midpoint rule suffices (error ~ step^3), which keeps
    the increment error a smooth function of the endpoints.  That
    smoothness is what lets central differences of d reach ~1e-10
    residuals: nearby evaluations share one quadrature base.
    """

    def __init__(self, mod: Modulus, tol: float = _PHI_TOL):
        self._f = _integrand(mod)
        self._tol = tol
        # per step, relative to the peak f(pi/2) = sqrt((1 + lam)/2)/lam >= 1
        self._step_tol = 0.1 * tol * math.sqrt(0.5 * (1.0 + mod.lam)) / mod.lam
        self.omega = 0.5 * math.pi * complete_f(mod.kappa, mod.lam)
        # Start on the integrand's peak, u(pi/2) = omega.  Newton steps
        # heading away from the peak undershoot, so no step has to
        # integrate across the 1/lam spike, which near kappa = 1 is
        # sharper than the quadrature's tolerance can resolve.
        self._T = 0.5 * math.pi
        self._u = self.omega

    def seek(self, target: float) -> float:
        f, tol, step_tol = self._f, self._tol, self._step_tol
        T, u = self._T, self._u
        for _ in range(80):
            residual = u - target
            if abs(residual) <= tol:
                break
            step = -residual / f(T)
            T_next = T + step
            if abs(step) < 1e-7:
                u += f(T + 0.5 * step) * step
            elif step > 0.0:
                u += integrate(f, Interval(T, T_next), step_tol)
            else:
                u -= integrate(f, Interval(T_next, T), step_tol)
            T = T_next
        else:
            raise ConvergenceError(f"phi iteration stalled at u={target}")
        self._T, self._u = T, u
        return T


def phi(u: float, mod: Modulus, tol: float = _PHI_TOL) -> float:
    """Inverse of the forward integral: the unique T with u(T) = u.

    Quasi-periodicity phi(u + 2 omega) = phi(u) + pi reduces the problem
    to [0, 2 omega) before Newton iteration, so the solve always starts
    inside one monotone branch.
    """
    walker = _PhiWalker(mod, tol)
    two_omega = 2.0 * walker.omega
    wraps = math.floor(u / two_omega)
    return walker.seek(u - wraps * two_omega) + wraps * math.pi


def phi_many(us: Sequence[float], mod: Modulus, tol: float = _PHI_TOL) -> list[float]:
    """phi at many points, sharing two continuation walks.

    Far cheaper than repeated ``phi`` on dense grids: arguments are
    reduced by quasi-periodicity and sorted; one walker climbs from the
    start (pi/2, omega) through the arguments above omega, another
    descends through those below, each advancing incrementally between
    neighbours.
    """
    up, down = _PhiWalker(mod, tol), _PhiWalker(mod, tol)
    two_omega = 2.0 * up.omega
    reduced = []
    for i, u in enumerate(us):
        wraps = math.floor(u / two_omega)
        reduced.append((u - wraps * two_omega, wraps, i))
    reduced.sort()
    out = [0.0] * len(reduced)
    for u0, wraps, i in reduced:
        if u0 >= up.omega:
            out[i] = up.seek(u0) + wraps * math.pi
    for u0, wraps, i in reversed(reduced):
        if u0 < up.omega:
            out[i] = down.seek(u0) + wraps * math.pi
    return out


def d_real(u: float, mod: Modulus) -> float:
    """The real-axis function d(u) = sqrt(1 - kappa^2 sin^2 phi(u)).

    Takes values in [lam, 1] and has period 2 omega.
    """
    s = mod.kappa * math.sin(phi(u, mod))
    return math.sqrt(1.0 - s * s)


def dd(z: complex, ctx: DDContext) -> complex:
    """dd via its Weierstrass product form: dd = 1 - (kappa^2/2)/(1/3 + p).

    At lattice points the p-function pole makes the value 1 (the
    removable point).  Arguments congruent to the imaginary half-period,
    where 1/3 + p vanishes, are poles of dd.
    """
    try:
        p = wp(z, ctx.lattice)
    except PoleError:
        return complex(1.0)
    denom = 1.0 / 3.0 + p
    if abs(denom) < 1e-12:
        raise PoleError("dd pole: argument congruent to the imaginary half-period")
    return 1.0 - (0.5 * ctx.modulus.kappa ** 2) / denom


def _singular_half_period_integral(angle: float, tol: float) -> float:
    """int_0^angle cos(t/2)/sqrt(cos 2t - cos 2*angle) dt.

    The difference of cosines is written 2 sin(t + angle) sin(angle - t)
    and the variable flipped so the inverse square-root singularity sits
    at 0, where tanh-sinh nodes resolve it exactly.
    """

    def f(t: float) -> float:
        return math.cos(0.5 * (angle - t)) / math.sqrt(
            2.0 * math.sin(2.0 * angle - t) * math.sin(t)
        )

    return integrate(f, Interval(0.0, angle), tol)


def omega_three_ways(mod: Modulus, tol: float = 1e-12) -> tuple[float, float, float]:
    """The real half-period by three independent routes.

    closed:       (pi/2) 2F1(1/4,3/4;1;kappa^2), by the AGM closed form
    via_integral: the forward integral at pi/2
    via_trig:     sqrt(2) int_0^alpha cos(t/2)/sqrt(cos 2t - cos 2 alpha) dt
    """
    closed = 0.5 * math.pi * complete_f(mod.kappa, mod.lam)
    via_integral = forward_integral(0.5 * math.pi, mod, tol)
    via_trig = math.sqrt(2.0) * _singular_half_period_integral(mod.alpha, tol)
    return closed, via_integral, via_trig


def omega_prime(mod: Modulus, tol: float = 1e-12) -> float:
    """Magnitude of the imaginary half-period.

    Computed as 2 int_0^beta cos(t/2)/sqrt(cos 2t - cos 2 beta) dt; it
    also equals (pi/sqrt2) 2F1(1/4,3/4;1;lam^2), that is
    (pi/sqrt2) complete_f(lam, kappa), and the lattice route,
    ``make_context(kappa).lattice.periods``, gives the same number.
    """
    return 2.0 * _singular_half_period_integral(mod.beta, tol)


def period_ratio(mod: Modulus) -> complex:
    """Lattice shape parameter: i sqrt(2) F(lam^2)/F(kappa^2), purely imaginary.

    F(x^2) = 2F1(1/4,3/4;1;x^2) comes from the AGM closed form ``complete_f``.
    """
    return complex(
        0.0, math.sqrt(2.0) * complete_f(mod.lam, mod.kappa) / complete_f(mod.kappa, mod.lam)
    )
