"""Elliptic solution of (w')^2 = f(w) from a simple root of the quartic f.

Coefficients use the binomial 1-4-6-4-1 normalization

    f(w) = a0 w^4 + 4 a1 w^3 + 6 a2 w^2 + 4 a3 w + a4,

under which the two invariants take their classical symmetric forms and
survive Taylor shifts unchanged.  Given f(w0) = 0 with f'(w0) != 0, f
recentered at w0 has a4 = 0, 4 a3 = f'(w0) and 12 a2 = f''(w0), and in
those coefficients the initial value problem w(0) = w0 is solved by

    w(z) = w0 + a3 / (p(z; g2, g3) - a2/2),

where (g2, g3) are the invariants of f.  The cubic case a0 = 0 is fully
supported; the formulas degrade gracefully.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .numerics import DomainError
from .weierstrass import Invariants, lattice, mobius

_ROOT_RTOL = 1e-10


class QuarticCoefficients(NamedTuple("QuarticCoefficients", [
        ("a0", float), ("a1", float), ("a2", float), ("a3", float), ("a4", float)])):
    """Quartic in binomial normalization; degree at least one."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))   # so that _replace validates too

    def __new__(cls, a0: float, a1: float, a2: float, a3: float, a4: float) -> QuarticCoefficients:
        if a0 == a1 == a2 == a3 == 0.0:
            raise DomainError("all of a0..a3 vanish: not a polynomial of degree >= 1")
        return tuple.__new__(cls, (a0, a1, a2, a3, a4))

    @classmethod
    def from_monomial(cls, c4: float, c3: float, c2: float, c1: float, c0: float) -> "QuarticCoefficients":
        """Build from plain monomial coefficients c4 w^4 + ... + c0."""
        return cls(c4, c3 / 4.0, c2 / 6.0, c1 / 4.0, c0)

    def value(self, w: float) -> float:
        return ((((self.a0 * w + 4.0 * self.a1) * w + 6.0 * self.a2) * w + 4.0 * self.a3) * w
                + self.a4)

    def _scale(self, w: float) -> float:
        aw = abs(w)
        return max(
            1.0,
            abs(self.a0) * aw ** 4,
            4.0 * abs(self.a1) * aw ** 3,
            6.0 * abs(self.a2) * aw * aw,
            4.0 * abs(self.a3) * aw,
            abs(self.a4),
        )


def quadrinvariant(q: QuarticCoefficients) -> float:
    """g2 = a0 a4 - 4 a1 a3 + 3 a2^2."""
    return q.a0 * q.a4 - 4.0 * q.a1 * q.a3 + 3.0 * q.a2 * q.a2


def cubinvariant(q: QuarticCoefficients) -> float:
    """g3 = a0 a2 a4 + 2 a1 a2 a3 - a2^3 - a0 a3^2 - a1^2 a4."""
    return (q.a0 * q.a2 * q.a4 + 2.0 * q.a1 * q.a2 * q.a3
            - q.a2 ** 3 - q.a0 * q.a3 ** 2 - q.a1 ** 2 * q.a4)


def recentered(q: QuarticCoefficients, c: float) -> QuarticCoefficients:
    """Coefficients of w -> f(w + c), same normalization.

    Both invariants are unchanged by this shift; that is what makes them
    invariants, and it is independently testable.
    """
    b1 = q.a0 * c + q.a1
    b2 = (q.a0 * c + 2.0 * q.a1) * c + q.a2
    b3 = ((q.a0 * c + 3.0 * q.a1) * c + 3.0 * q.a2) * c + q.a3
    return QuarticCoefficients(q.a0, b1, b2, b3, q.value(c))


def taylor_shift(q: QuarticCoefficients, w0: float) -> QuarticCoefficients:
    """f recentered at a simple root w0: ``recentered(q, w0)``, checked.

    Its a4 = f(w0) must vanish and its 4 a3 = f'(w0) must not, each against
    the size of the terms of f(w0); raises DomainError otherwise or for a non-finite w0.
    """
    if not math.isfinite(w0):
        raise DomainError(f"w0={w0} is not finite")
    scale = q._scale(w0)
    shifted = recentered(q, w0)
    if abs(shifted.a4) > _ROOT_RTOL * scale:
        raise DomainError(f"w0={w0} is not a root: f(w0)={shifted.a4:g}")
    if abs(4.0 * shifted.a3) <= _ROOT_RTOL * scale:
        raise DomainError(f"root not simple: f'(w0)={4.0 * shifted.a3:g}")
    return shifted


def solve_quartic_ivp(
    q: QuarticCoefficients, w0: float
) -> tuple[Callable[[complex], complex], Invariants]:
    """Solution of (w')^2 = f(w), w(0) = w0, as a callable, plus invariants.

    The p-function pole at 0 is the removable point where the solution
    takes its initial value.  The invariants get their lattice, roots by
    Viete, once; invariants with non-positive discriminant fall outside the
    rectangular-lattice machinery, and the cubic solver behind ``lattice``
    rejects them with UnsupportedLatticeError.
    """
    shift = taylor_shift(q, w0)
    inv = Invariants(quadrinvariant(q), cubinvariant(q))
    lat, offset, residue = lattice(inv), 0.5 * shift.a2, shift.a3   # f''(w0)/24, f'(w0)/4
    return (lambda z: mobius(z, lat, 0, offset, w0, residue)), inv
