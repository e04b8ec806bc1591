"""Elliptic solutions of the degree-four Chebyshev differential equation.

For a parameter lam in (0, 1) the equation is

    (y')^2 = T4(y) - (1 - 2 lam^2) = 8 y^4 - 8 y^2 + 2 lam^2,

whose right-hand side has the four simple real zeros +-mu_plus, +-mu_minus
with mu_plus = sqrt((1 + kappa)/2), mu_minus = lam/(2 mu_plus) (that is
sqrt((1 - kappa)/2) without its cancellation) and kappa = sqrt(1 - lam^2).

y4 is the dd function turned by a quarter and has no lattice of its own:
its p-function, with invariants (16 g2, -64 g3) and roots E_j = -4 e_(4-j),
is P(z) = -4 p(2iz) on the dd lattice of the pair (kappa, lam), exactly.
So the solution mu_plus (1 + 4 kappa/((P - E1) - 2 kappa)) starting at
mu_plus is mu_plus - kappa mu_plus/((p(2iz) - e3) + kappa/2), relatively
accurate however small kappa is; the mu_minus solution negates kappa and
reads p - e2.  The half-period shift laws relating the four solutions are
checkable facts rather than definitions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .dd import Modulus, dd_lattice, make_context
from .numerics import DomainError
from .weierstrass import Lattice, PeriodPair, _far_argument, mobius


class Y4Context(NamedTuple):
    """Parameter bundle for one lam: quartic roots, the dd lattice y4 reads, y4's half-periods."""

    lam: float
    kappa: float
    mu_plus: float
    mu_minus: float
    dd_lattice: Lattice
    periods: PeriodPair


@lru_cache(maxsize=128)
def make_y4_context(param: Modulus | float) -> Y4Context:
    """Quartic roots and dd lattice: that of ``make_context(kappa)`` for the dd modulus pair,
    or the dd lattice of (sqrt((1 - lam)(1 + lam)), lam) for a bare lam in (0, 1)."""
    if isinstance(param, Modulus):
        (kappa, lam), lat = param, make_context(param.kappa).lattice
    elif 0.0 < param < 1.0:
        kappa, lam = math.sqrt((1.0 - param) * (1.0 + param)), param
        lat = dd_lattice(kappa, lam)
    else:
        raise DomainError(f"parameter must lie in (0, 1), got {param}")
    mu = math.sqrt(0.5 * (1.0 + kappa))
    hr, hi = lat.periods
    return Y4Context(lam, kappa, mu, lam / (2.0 * mu), lat, PeriodPair(0.5 * hi, 0.5 * hr))


def y4_plus(z: complex, ctx: Y4Context) -> complex:
    """The solution with value mu_plus at 0; poles congruent to +-Omega/2."""
    kappa, mu = ctx.kappa, ctx.mu_plus
    try:
        return mobius(2j * z, ctx.dd_lattice, 3, -0.5 * kappa, mu, -kappa * mu)
    except DomainError:   # raised for 2iz; name the caller's z
        raise _far_argument(z) from None


def y4_minus(z: complex, ctx: Y4Context) -> complex:
    """The solution with value mu_minus at 0: y4_plus with kappa negated.

    Its pole p = e3 + kappa/2 nears e2 as kappa -> 1, so it reads p - e2:
    (p - e3) - kappa/2 = (p - e2) - kappa (1 - kappa + lam)/(2 (1 + lam)).
    """
    k, lam, mu = ctx.kappa, ctx.lam, ctx.mu_minus
    try:
        return mobius(2j * z, ctx.dd_lattice, 2, 0.5 * k * (1.0 - k + lam) / (1.0 + lam), mu, k * mu)
    except DomainError:
        raise _far_argument(z) from None


def y4_zeros_poles(ctx: Y4Context) -> tuple[complex, complex]:
    """Representative zero and pole of y4_plus in the fundamental cell.

    The zero sits at Omega/2 + i|Omega'|, the pole at Omega/2; every
    zero/pole is congruent to plus-or-minus these.
    """
    hr, hi = ctx.periods
    return complex(0.5 * hr, hi), complex(0.5 * hr, 0.0)


def y4_zero_ivp_solution(z: complex, ctx: Y4Context) -> complex:
    """The odd solution of the quartic equation with y(0) = 0.

    Realized as the translate of y4_plus by its zero; the second solution
    of that initial value problem is the negative of this one.
    """
    zero, _ = y4_zeros_poles(ctx)
    return y4_plus(z + zero, ctx)
