"""The dd function family: the signature-four analogue of the Jacobian dn.

Construction, for a modulus kappa in (0, 1) with complement
lam = sqrt(1 - kappa^2):

* the incomplete integral  u(T) = int_0^T 2F1(1/4,3/4;1/2; kappa^2 sin^2 t) dt
  is a strictly increasing bijection of the real line; ``phi`` is its
  inverse, found by Newton continuation.  The integrand is evaluated in
  closed form, sqrt((1+c)/2)/c with c = sqrt(1 - kappa^2 sin^2 t) >= lam;
  it is analytic off the branch points pi/2 + k pi +- i asinh(lam/kappa),
  so u is integrated by an 8-point Gauss-Legendre rule on panels graded
  by the distance to those points, with no tolerance to meet,
* on the real axis  d(u) = cos(arcsin(kappa sin phi(u)))
                        = sqrt(1 - kappa^2 sin^2 phi(u)),
* the elliptic extension dd of d to the plane satisfies
  (1 - dd)(p - e3) = kappa^2 / 2 against the coperiodic Weierstrass
  function p with invariants g2 = (3 lam^2 + 1)/3, g3 = (9 lam^2 - 1)/27
  and lowest root e3 = -1/3.  That product form, with p - e3 from the
  lattice's root differences, is how ``dd`` is evaluated, on the real
  axis and near its pole omega' too.  The real-axis composition
  ``d_real`` stays available as an independent cross-check route.

The real half-period omega admits three independent computations (AGM
closed form, forward integral, singular trigonometric integral), kept
separate so they can corroborate one another.  The trigonometric
integrals of omega and omega' have an inverse square-root endpoint
singularity; they alone use tanh-sinh quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .hypergeometric import complete_f
from .numerics import ConvergenceError, DomainError, Interval, gauss_legendre, integrate
from .weierstrass import Invariants, Lattice, MidpointTriple, build_lattice, mobius

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


_GAUSS = gauss_legendre(8)


def _branch_gap(mod: Modulus) -> float:
    """a = asinh(lam/kappa): where kappa^2 sin^2 t = 1, at t = pi/2 + k pi +- i a."""
    return math.asinh(mod.lam / mod.kappa)


def _u_between(f, a2: float, t0: float, t1: float) -> float:
    """int_t0^t1 f, by the 8-point Gauss-Legendre rule on graded panels.

    The panel that starts at t has width sqrt(delta^2 + a^2)/4, a quarter
    of the distance from t to the nearest branch point pi/2 + k pi +- i a
    (delta = |t - (pi/2 + k pi)|), so every panel sits well inside the
    integrand's region of analyticity and the rule is exact to rounding
    (DLMF 3.5(v)).  The panels run from t0 towards t1, the last one cut
    at t1; t1 < t0 gives the negated integral.
    """
    sign = 1.0 if t1 > t0 else -1.0
    total = 0.0
    t = t0
    while t != t1:
        delta = math.remainder(t - 0.5 * math.pi, math.pi)
        end = t + sign * 0.25 * math.sqrt(delta * delta + a2)
        if sign * (t1 - end) <= 0.0:
            end = t1
        mid, half = 0.5 * (t + end), 0.5 * (end - t)
        s = 0.0
        for x, w in _GAUSS:
            s += w * (f(mid + half * x) + f(mid - half * x))
        total += half * s
        t = end
    return total


def forward_integral(T: float, mod: Modulus) -> float:
    """The incomplete integral u(T); odd and strictly increasing in T.

    Quasi-periodicity u(T + pi) = u(T) + 2 omega, omega =
    (pi/2) complete_f(kappa, lam), reduces T to r in [-pi/2, pi/2]; u(r)
    comes from the graded Gauss-Legendre panels of ``_u_between``, so a
    large |T| costs no more than |T| = pi/2.  Raises DomainError for a
    non-finite T.
    """
    if not math.isfinite(T):
        raise DomainError(f"forward integral needs a finite argument, got {T}")
    r = math.remainder(T, math.pi)  # exact, so any |T| lands in [-pi/2, pi/2]
    wraps = round((T - r) / math.pi)
    omega = 0.5 * math.pi * complete_f(mod.kappa, mod.lam)
    a = _branch_gap(mod)
    return 2.0 * wraps * omega + _u_between(_integrand(mod), a * a, 0.0, r)


class _PhiWalker:
    """Newton continuation along the strictly increasing map u(T).

    Maintains the pair (T, u(T)) and advances it to successive targets.
    Each Newton step's increment of u comes from ``_u_between``: one
    8-point panel on the short steps of a dense grid.  Steps under 1e-7
    take the midpoint rule f(T + step/2) step instead, on the step as
    computed rather than the rounded T_next - T.  Near kappa = 1 one ulp
    of T at pi/2 moves u by more than the 1e-12 tolerance, so no float T
    meets it; crediting the unrounded step lets the walk settle, where
    integrating the rounded one leaves Newton cycling until it stalls.
    """

    def __init__(self, mod: Modulus, tol: float = _PHI_TOL):
        self._f = _integrand(mod)
        self._a2 = _branch_gap(mod) ** 2
        self._tol = tol
        self.omega = 0.5 * math.pi * complete_f(mod.kappa, mod.lam)
        self.restart()

    def restart(self) -> None:
        # Start on the integrand's peak, u(pi/2) = omega.  u is convex
        # below pi/2 and concave above, so Newton steps heading away from
        # the peak undershoot and never jump across the 1/lam spike into
        # the next branch.
        self._T, self._u = 0.5 * math.pi, self.omega

    def seek(self, target: float) -> float:
        f, a2, tol = self._f, self._a2, self._tol
        T, u = self._T, self._u
        for _ in range(80):
            residual = u - target
            if abs(residual) <= tol:
                break
            step = -residual / f(T)
            T_next = T + step
            if abs(step) < 1e-7:
                u += f(T + 0.5 * step) * step
            else:
                u += _u_between(f, a2, T, T_next)
            T = T_next
        else:
            raise ConvergenceError(f"phi iteration stalled at u={target}")
        self._T, self._u = T, u
        return T


def _reduce(u: float, two_omega: float) -> tuple[float, int]:
    """(u0, wraps) with u = u0 + wraps 2 omega and u0 in [0, 2 omega].

    fmod is exact, so an argument of any size lands in one monotone
    branch of u(T).
    """
    if not math.isfinite(u):
        raise DomainError(f"phi needs a finite argument, got {u}")
    u0 = math.fmod(u, two_omega)
    if u0 < 0.0:
        u0 += two_omega
    return u0, round((u - u0) / two_omega)


def phi(u: float, mod: Modulus, tol: float = _PHI_TOL) -> float:
    """Inverse of the forward integral, the unique T with u(T) = u: ``phi_many`` at one point."""
    return phi_many((u,), mod, tol)[0]


def phi_many(us: Sequence[float], mod: Modulus, tol: float = _PHI_TOL) -> list[float]:
    """phi at many points, sharing one continuation walker.

    Quasi-periodicity phi(u + 2 omega) = phi(u) + pi reduces the arguments
    to [0, 2 omega], each branch monotone; sorted, they are walked from
    the integrand's peak (pi/2, omega), climbing through those above omega,
    then, restarted there, descending through those below, advancing
    incrementally between neighbours.  Raises DomainError if any argument
    is not finite.
    """
    walker = _PhiWalker(mod, tol)
    omega = walker.omega
    reduced = sorted((*_reduce(u, 2.0 * omega), i) for i, u in enumerate(us))
    out = [0.0] * len(reduced)
    for u0, wraps, i in reduced:
        if u0 >= omega:
            out[i] = walker.seek(u0) + wraps * math.pi
    walker.restart()
    for u0, wraps, i in reversed(reduced):
        if u0 < omega:
            out[i] = walker.seek(u0) + wraps * math.pi
    return out


def d_real(u: float, mod: Modulus) -> float:
    """The real-axis function d(u) = sqrt(1 - kappa^2 sin^2 phi(u)).

    Takes values in [lam, 1] and has period 2 omega.
    """
    s = mod.kappa * math.sin(phi(u, mod))
    return math.sqrt(1.0 - s * s)


def dd(z: complex, ctx: DDContext) -> complex:
    """dd via its Weierstrass product form: dd = 1 - (kappa^2/2)/(p - e3).

    At lattice points the p-function pole makes the value 1 (the
    removable point).  Arguments congruent to the imaginary half-period,
    where p - e3 vanishes, are poles of dd.
    """
    return mobius(z, ctx.lattice, 3, 0.0, 1.0, -0.5 * ctx.modulus.kappa ** 2)


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
    via_integral = forward_integral(0.5 * math.pi, mod)
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
