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
checkable facts rather than definitions.  Nor has y4 a context of its
own: like every evaluator of the package it takes the ``DDContext`` of
the pair, from ``make_context(kappa)`` or, for a bare lam, ``make_y4_context(lam)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .dd import DDContext, Modulus, pair_context
from .numerics import DomainError
from .weierstrass import PeriodPair, _far_argument, mobius


@lru_cache(maxsize=128)
def make_y4_context(lam: float) -> DDContext:
    """The context of the pair (sqrt((1 - lam)(1 + lam)), lam) for a bare lam in (0, 1)."""
    if not (0.0 < lam < 1.0):
        raise DomainError(f"parameter must lie in (0, 1), got {lam}")
    return pair_context(Modulus(math.sqrt((1.0 - lam) * (1.0 + lam)), lam))


def y4_periods(ctx: DDContext) -> PeriodPair:
    """y4's half-periods (Omega, |Omega'|) = (|omega'|/2, omega/2), the dd ones turned."""
    hr, hi = ctx.lattice.periods
    return PeriodPair(0.5 * hi, 0.5 * hr)


def y4_plus(z: complex, ctx: DDContext) -> complex:
    """The solution with value mu_plus at 0; poles congruent to +-Omega/2."""
    kappa, mu = ctx.modulus.kappa, ctx.mu_plus
    try:
        return mobius(2j * z, ctx.lattice, 3, -0.5 * kappa, mu, -kappa * mu)
    except DomainError:   # raised for 2iz; name the caller's z
        raise _far_argument(z) from None


def y4_minus(z: complex, ctx: DDContext) -> complex:
    """The solution with value mu_minus at 0: y4_plus with kappa negated.

    Its pole p = e3 + kappa/2 nears e2 as kappa -> 1, so it reads p - e2:
    (p - e3) - kappa/2 = (p - e2) - kappa (1 - kappa + lam)/(2 (1 + lam)).
    """
    (k, lam), mu = ctx.modulus, ctx.mu_minus
    try:
        return mobius(2j * z, ctx.lattice, 2, 0.5 * k * (1.0 - k + lam) / (1.0 + lam), mu, k * mu)
    except DomainError:
        raise _far_argument(z) from None


def y4_zeros_poles(ctx: DDContext) -> tuple[complex, complex]:
    """Representative zero and pole of y4_plus in the fundamental cell.

    The zero sits at Omega/2 + i|Omega'|, the pole at Omega/2; every
    zero/pole is congruent to plus-or-minus these.
    """
    hr, hi = ctx.lattice.periods   # Omega/2 = |omega'|/4, |Omega'| = omega/2, no PeriodPair
    return complex(0.25 * hi, 0.5 * hr), complex(0.25 * hi, 0.0)


def y4_zero_ivp_solution(z: complex, ctx: DDContext) -> complex:
    """The odd solution of the quartic equation with y(0) = 0.

    Realized as the translate of y4_plus by its zero; the second solution
    of that initial value problem is the negative of this one.
    """
    zero, _ = y4_zeros_poles(ctx)
    return y4_plus(z + zero, ctx)
