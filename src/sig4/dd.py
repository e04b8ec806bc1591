"""The dd function family: the signature-four analogue of the Jacobian dn.

Construction, for a modulus kappa in (0, 1) with complement
lam = sqrt(1 - kappa^2):

* the incomplete integral  u(T) = int_0^T 2F1(1/4,3/4;1/2; kappa^2 sin^2 t) dt
  is a strictly increasing bijection of the real line, and ``phi`` is its
  inverse,
* on the real axis  d(u) = cos(arcsin(kappa sin phi(u)))
                        = sqrt(1 - kappa^2 sin^2 phi(u)),
* the elliptic extension dd of d to the plane satisfies
  (1 - dd)(p - e3) = kappa^2 / 2 against the coperiodic Weierstrass
  function p with invariants g2 = (3 lam^2 + 1)/3, g3 = (9 lam^2 - 1)/27
  and roots e = ((1 + 3 lam)/6, (1 - 3 lam)/6, -1/3).

Every quantity has one closed form, read off the lattice or Carlson's
R_F, with no quadrature and no Newton loop:

* ``dd`` is that product form, with p - e3 from the lattice's root
  differences, and ``d_real`` is its real part on the real axis,
* ``forward_integral`` is R_F(p - e1, p - e2, p - e3) (DLMF 19.25(vi))
  written in T, where p - e3 = (1 + c)/(2 sin^2 T), c = d(u(T)),
* ``phi`` inverts it through p - e1 on the lattice:
  tan^2 phi = ((1 + lam)/2)(1 + d)/((p - e1)(d + lam)).

Each takes the pair's ``DDContext`` (``make_context(kappa)`` or
``y4.make_y4_context(lam)``) and reads kappa, lam and the lattice off it.
The independent routes to the half-periods live in the identity suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .numerics import DomainError, PoleError, carlson_rf
from .weierstrass import Invariants, Lattice, MidpointTriple, _evaluate, build_lattice, mobius


class Modulus(NamedTuple):
    """Modulus pair: kappa and its complement lam = sqrt(1 - kappa^2)."""

    kappa: float
    lam: float


def make_modulus(kappa: float) -> Modulus:
    if not (0.0 < kappa < 1.0):
        raise DomainError(f"modulus must lie in (0, 1), got {kappa}")
    return Modulus(kappa, math.sqrt((1.0 - kappa) * (1.0 + kappa)))


class DDContext(NamedTuple):
    """The one context of a modulus pair: dd reads its lattice at z, y4 at 2iz."""

    modulus: Modulus
    lattice: Lattice
    mu_plus: float
    mu_minus: float


def pair_context(mod: Modulus) -> DDContext:
    """The context of the pair (kappa, lam), unchecked: the p-lattice from its closed-form roots.

    e = ((1 + 3 lam)/6, (1 - 3 lam)/6, -1/3), so e1 - e2 = lam,
    e1 - e3 = (1 + lam)/2 and e2 - e3 = kappa^2/(2 (1 + lam)); and the y4
    quartic's zeros mu_plus = sqrt((1 + kappa)/2), mu_minus = lam/(2 mu_plus).
    """
    kappa, lam = mod
    lam2 = lam * lam
    inv = Invariants((3.0 * lam2 + 1.0) / 3.0, (9.0 * lam2 - 1.0) / 27.0)
    roots = MidpointTriple((1.0 + 3.0 * lam) / 6.0, (1.0 - 3.0 * lam) / 6.0, -1.0 / 3.0)
    lat = build_lattice(inv, roots, lam, 0.5 * (1.0 + lam), kappa * kappa / (2.0 * (1.0 + lam)))
    mu = math.sqrt(0.5 * (1.0 + kappa))
    return DDContext(mod, lat, mu, lam / (2.0 * mu))


@lru_cache(maxsize=128)
def make_context(kappa: float) -> DDContext:
    """The context (``pair_context``) of the dd modulus ``kappa``."""
    return pair_context(make_modulus(kappa))


def forward_integral(T: float, ctx: DDContext) -> float:
    """The incomplete integral u(T) of the pair ``ctx``; odd and strictly increasing in T.

    On [0, pi/2], with c = hypot(lam, kappa cos T) and
    A = cos^2 T (1 + lam + kappa^2/(c + lam))/2,

        u(T) = sin T R_F(A, A + lam sin^2 T, (1 + c)/2),

    every argument a sum of non-negative terms.  The laws u(-T) = -u(T)
    and u(T + pi) = u(T) + 2 omega, with omega the real half-period of the
    context's lattice, carry it to the whole line, so a large |T| costs no
    more than a small one.  Raises DomainError for a non-finite T.
    """
    if not math.isfinite(T):
        raise DomainError(f"forward integral needs a finite argument, got {T}")
    r = math.remainder(T, math.pi)  # exact, so any |T| lands in [-pi/2, pi/2]
    wraps = round((T - r) / math.pi)
    kappa, lam = ctx.modulus
    sin_r, cos_r = math.sin(r), math.cos(r)
    c = math.hypot(lam, kappa * cos_r)
    a = 0.5 * cos_r * cos_r * (1.0 + lam + kappa * kappa / (c + lam))
    u = sin_r * carlson_rf(a, a + lam * sin_r * sin_r, 0.5 * (1.0 + c))
    return u + 2.0 * wraps * ctx.lattice.periods.half_real


def phi(u: float, ctx: DDContext) -> float:
    """Inverse of the forward integral, the unique T with u(T) = u, from p - e1 on the lattice.

    With p1 = p - e1 at the remainder of u modulo 2 omega and
    r = d - lam = kappa^2 p1/((1 + lam)(p1 + (1 + lam)/2)),
    phi = atan2(sqrt((1 + lam)(1 + lam + r)/2), sqrt(p1 (2 lam + r))) on
    [0, omega], free of cancellation; phi(-u) = -phi(u) and
    phi(u + 2 omega) = phi(u) + pi give the rest.  Within the kernel's
    pole distance of the lattice, phi(u) = u to rounding.  Raises
    DomainError for a non-finite argument.
    """
    if not math.isfinite(u):
        raise DomainError(f"phi needs a finite argument, got {u}")
    (kappa, lam), lat = ctx.modulus, ctx.lattice
    two_omega = 2.0 * lat.periods.half_real
    rem = math.remainder(u, two_omega)  # exact, in [-omega, omega]
    wraps = round((u - rem) / two_omega)
    try:
        p1 = _evaluate(abs(rem), lat, 1, False)[0].real
    except PoleError:
        return wraps * math.pi + rem
    half = 0.5 * (1.0 + lam)
    r = kappa ** 2 * p1 / ((1.0 + lam) * (p1 + half))
    angle = math.atan2(math.sqrt(half * (1.0 + lam + r)), math.sqrt(p1 * (2.0 * lam + r)))
    return wraps * math.pi + math.copysign(angle, rem)


def phi_many(us: Sequence[float], ctx: DDContext) -> list[float]:
    """``phi`` at each of ``us``."""
    return [phi(u, ctx) for u in us]


def d_real(u: float, ctx: DDContext) -> float:
    """The real-axis function d(u) = sqrt(1 - kappa^2 sin^2 phi(u)), as the real part of ``dd``.

    Takes values in [lam, 1] and has period 2 omega.
    """
    return dd(u, ctx).real


def dd(z: complex, ctx: DDContext) -> complex:
    """dd via its Weierstrass product form: dd = 1 - (kappa^2/2)/(p - e3).

    At lattice points the p-function pole makes the value 1 (the
    removable point).  Arguments congruent to the imaginary half-period,
    where p - e3 vanishes, are poles of dd.
    """
    return mobius(z, ctx.lattice, 3, 0.0, 1.0, -0.5 * ctx.modulus.kappa ** 2)

