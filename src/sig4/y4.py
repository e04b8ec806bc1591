"""Elliptic solutions of the degree-four Chebyshev differential equation.

For a parameter lam in (0, 1) the equation is

    (y')^2 = T4(y) - (1 - 2 lam^2) = 8 y^4 - 8 y^2 + 2 lam^2,

whose right-hand side has the four simple real zeros +-mu_plus, +-mu_minus
with mu_plus = sqrt((1 + kappa)/2), mu_minus = lam/(2 mu_plus) (that is
sqrt((1 - kappa)/2) without its cancellation) and kappa = sqrt(1 - lam^2).
The solution starting at mu_plus has the Weierstrass form

    y4_plus = mu_plus * (1 + 4 kappa / ((P - E1) - 2 kappa)),   E1 = 4/3,

with P the p-function for G2 = (16/3)(1 + 3 lam^2), G3 = (64/27)(1 - 9 lam^2)
and P - E1 a theta quotient on the lattice, relatively accurate however
small kappa is.  The mu_minus solution is the same formula with kappa
negated, read off P - E2; the half-period shift laws relating the four
solutions are then checkable facts rather than definitions.
Built from the dd ``Modulus`` (kappa, lam), the y4 lattice is the dd
lattice turned by a quarter.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .dd import Modulus
from .numerics import DomainError
from .weierstrass import Invariants, Lattice, MidpointTriple, build_lattice, mobius


class Y4Context(NamedTuple):
    """Parameter bundle for one lam: quartic roots and the p-lattice."""

    lam: float
    kappa: float
    mu_plus: float
    mu_minus: float
    lattice: Lattice


@lru_cache(maxsize=128)
def make_y4_context(param: Modulus | float) -> Y4Context:
    """Quartic roots and p-lattice for the dd modulus pair, or for a bare lam in (0, 1).

    E = (4/3, 2 lam - 2/3, -2/3 - 2 lam), so E1 - E2 = 2 kappa^2/(1 + lam),
    E1 - E3 = 2 (1 + lam) and E2 - E3 = 4 lam.
    """
    if isinstance(param, Modulus):
        kappa, lam = param.kappa, param.lam
    elif 0.0 < param < 1.0:
        lam = param
        kappa = math.sqrt((1.0 - lam) * (1.0 + lam))
    else:
        raise DomainError(f"parameter must lie in (0, 1), got {param}")
    lam2 = lam * lam
    inv = Invariants(16.0 / 3.0 * (1.0 + 3.0 * lam2), 64.0 / 27.0 * (1.0 - 9.0 * lam2))
    roots = MidpointTriple(4.0 / 3.0, 2.0 * lam - 2.0 / 3.0, -2.0 / 3.0 - 2.0 * lam)
    gaps = (2.0 * kappa * kappa / (1.0 + lam), 2.0 * (1.0 + lam), 4.0 * lam)
    mu_plus = math.sqrt(0.5 * (1.0 + kappa))
    return Y4Context(lam, kappa, mu_plus, lam / (2.0 * mu_plus), build_lattice(inv, roots, *gaps))


def y4_plus(z: complex, ctx: Y4Context) -> complex:
    """The solution with value mu_plus at 0; poles congruent to +-half_real/2."""
    kappa, mu = ctx.kappa, ctx.mu_plus
    return mobius(z, ctx.lattice, 1, 2.0 * kappa, mu, 4.0 * kappa * mu)


def y4_minus(z: complex, ctx: Y4Context) -> complex:
    """The solution with value mu_minus at 0: y4_plus with kappa negated.

    Its pole P - E1 = -2 kappa nears E2 as kappa -> 1, so it reads P - E2:
    (P - E1) + 2 kappa = (P - E2) + 2 kappa (1 - kappa + lam)/(1 + lam).
    """
    k, lam, mu = ctx.kappa, ctx.lam, ctx.mu_minus
    return mobius(z, ctx.lattice, 2, -2.0 * k * (1.0 - k + lam) / (1.0 + lam), mu, -4.0 * k * mu)


def y4_zeros_poles(ctx: Y4Context) -> tuple[complex, complex]:
    """Representative zero and pole of y4_plus in the fundamental cell.

    The zero sits at half_real/2 + imaginary half-period, the pole at
    half_real/2; every zero/pole is congruent to plus-or-minus these.
    """
    pp = ctx.lattice.periods
    half = 0.5 * pp.half_real
    return complex(half, pp.half_imag_mag), complex(half, 0.0)


def y4_zero_ivp_solution(z: complex, ctx: Y4Context) -> complex:
    """The odd solution of the quartic equation with y(0) = 0.

    Realized as the translate of y4_plus by its zero; the second solution
    of that initial value problem is the negative of this one.
    """
    zero, _ = y4_zeros_poles(ctx)
    return y4_plus(z + zero, ctx)
