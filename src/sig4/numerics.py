"""Shared numeric kernels.

Scalar building blocks used throughout the package:

* Carlson's symmetric elliptic integral R_F by duplication, behind the
  forward integral u(T) of ``dd``,
* the arithmetic-geometric mean, behind every complete elliptic value,
* the depressed cubic ``4 t^3 - g2 t - g3`` solved by the trigonometric
  (Viete) method for the three-real-root regime; its solver holds the
  package's one check of the discriminant g2^3 - 27 g3^2 and raises
  UnsupportedLatticeError outside that regime,
* tanh-sinh (double-exponential) quadrature, tolerant of inverse
  square-root endpoint singularities; only the identity suite's
  trigonometric half-period integrals use it.

Everything here is a pure function over value types and safe for
concurrent use.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

_MAX_LEVEL = 12
_UMAX = 5.0  # abscissa cutoff; weights below ~1e-100 there
# R_F duplication stops once 4^-n Q < A_n, Q = (3 r)^(-1/8) max|A_0 - x_0|, r = 2^-53
_RF_Q = (3.0 * 2.0 ** -53) ** (-1.0 / 8.0)


class DomainError(ValueError):
    """Input outside the supported domain."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance."""


class PoleError(ArithmeticError):
    """Evaluation requested at, or too close to, a pole."""


class UnsupportedLatticeError(DomainError):
    """Invariants outside the real rectangular-lattice regime."""


class Interval(NamedTuple("Interval", [("lo", float), ("hi", float)])):
    """Closed integration interval with ``lo < hi``."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))   # so that _replace validates too

    def __new__(cls, lo: float, hi: float) -> Interval:
        if not (lo < hi):
            raise DomainError(f"interval requires lo < hi, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))


# --------------------------------------------------------------------------
# tanh-sinh quadrature
#
# Under x = m + (L/2) tanh((pi/2) sinh u) the trapezoid rule in u converges
# doubly exponentially, and the weights decay fast enough to swallow
# integrable endpoint singularities such as (x - a)^(-1/2).  Nodes are
# stored as (fraction-of-length from the nearer endpoint, weight) so the
# abscissae can be formed without cancellation.

@functools.cache
def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Positive-u abscissae newly introduced at this refinement level."""
    h = 0.5 ** level
    if level == 0:
        us = [k * h for k in range(1, int(_UMAX / h) + 1)]
    else:
        us = [k * h for k in range(1, int(_UMAX / h) + 1, 2)]
    nodes = []
    for u in us:
        s = 0.5 * math.pi * math.sinh(u)
        q = math.exp(-2.0 * s)
        frac = q / (1.0 + q)  # distance to the nearer endpoint, / length
        weight = 2.0 * math.pi * math.cosh(u) * q / (1.0 + q) ** 2
        nodes.append((frac, weight))
    return nodes


def integrate(f: Callable[[float], float], iv: Interval, tol: float) -> float:
    """Integrate ``f`` over ``iv`` to absolute tolerance ``tol``.

    The integrand may blow up like an inverse square root at either
    endpoint.  For full accuracy with a singular endpoint, arrange the
    problem so the singularity sits at 0: offsets from a nonzero endpoint
    are limited by the spacing of floating-point numbers near it, whereas
    offsets from 0 resolve down to the subnormal range.  Nodes that would
    collapse onto an endpoint are skipped.

    Raises DomainError before any evaluation unless ``tol`` > 0, so also
    for a NaN ``tol``; raises ConvergenceError if level-to-level refinement
    has not settled below ``tol`` after the maximum refinement level.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    a, b = iv
    length = b - a
    half = 0.5 * length

    def shell_sum(nodes: list[tuple[float, float]]) -> float:
        s = 0.0
        for frac, weight in nodes:
            delta = frac * length
            xl = a + delta
            xr = b - delta
            if xl != a:
                s += weight * f(xl)
            if xr != b:
                s += weight * f(xr)
        return s

    total = 0.5 * math.pi * f(a + half) + shell_sum(_level_nodes(0))
    estimate = half * total  # h = 1
    h = 1.0
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        total += shell_sum(_level_nodes(level))
        refined = h * half * total
        err = abs(refined - estimate)
        estimate = refined
        if err <= tol:
            return estimate
    raise ConvergenceError(
        f"quadrature did not reach tol={tol:g} after level {_MAX_LEVEL} "
        f"(last refinement moved {err:.3e})"
    )


_THREE_SQRT3 = 3.0 * math.sqrt(3.0)
_THIRD_TURN, _TWO_THIRDS_TURN = (2.0 * math.pi * k / 3.0 for k in (1, 2))


def solve_depressed_cubic(g2: float, g3: float) -> tuple[float, float, float]:
    """Real roots of ``4 t^3 - g2 t - g3 = 0``, sorted descending.

    Only the positive-discriminant case ``g2^3 - 27 g3^2 > 0`` (three
    distinct real roots) is supported; it forces ``g2 > 0``, which the
    trigonometric method needs; anything else raises UnsupportedLatticeError.
    The returned triple sums to zero exactly up to roundoff, matching the
    vanishing quadratic coefficient.
    """
    disc = g2 ** 3 - 27.0 * g3 ** 2
    if not disc > 0.0:
        raise UnsupportedLatticeError(f"discriminant g2^3 - 27 g3^2 = {disc:g} is not positive")
    amp = math.sqrt(g2 / 3.0)
    arg = _THREE_SQRT3 * g3 / (g2 * math.sqrt(g2))
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg) / 3.0
    r0 = amp * math.cos(theta)
    r1 = amp * math.cos(theta - _THIRD_TURN)
    r2 = amp * math.cos(theta - _TWO_THIRDS_TURN)
    shift = (r0 + r1 + r2) / 3.0  # re-center to exact zero sum
    return tuple(sorted((r0 - shift, r1 - shift, r2 - shift), reverse=True))


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    for _ in range(60):
        if abs(a - b) <= 4e-16 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def carlson_rf(x: float, y: float, z: float) -> float:
    """R_F(x, y, z) = (1/2) int_0^inf dt/sqrt((t + x)(t + y)(t + z)).

    Duplication (Carlson, Numer. Algorithms 10, 1995): each step maps
    every argument v to (v + l)/4, l = sqrt(x y) + sqrt(y z) + sqrt(z x),
    and cuts the spread about the mean A by 4, until A dominates it; the
    series of DLMF 19.36.1 through degree 7 in the scaled deviations
    X = (A_0 - x_0)/(4^n A_n), ... then has relative error about 2^-53.
    Needs finite x, y, z >= 0, at most one of them 0.
    """
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0 and min(x + y, y + z, z + x) > 0.0
            and x + y + z < math.inf):
        raise DomainError(f"R_F needs finite non-negative arguments, at most one 0: {x}, {y}, {z}")
    a0 = a = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _RF_Q * max(abs(dx), abs(dy), abs(a0 - z))
    scale = 1.0
    while q * scale >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    series = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
              - 5.0 * e2 ** 3 / 208.0 + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)
    return series / math.sqrt(a)
