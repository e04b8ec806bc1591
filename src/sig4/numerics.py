"""Shared numeric kernels.

Scalar building blocks used throughout the package:

* tanh-sinh (double-exponential) quadrature, tolerant of inverse
  square-root endpoint singularities; it serves only the singular
  half-period integrals of ``dd``,
* the nodes and weights of the Gauss-Legendre rule, behind the panel
  rule that integrates the smooth forward integral u(T) of ``dd``,
* the depressed cubic ``4 t^3 - g2 t - g3`` solved by the trigonometric
  (Viete) method for the three-real-root regime,
* the arithmetic-geometric mean, behind every complete elliptic value.

Everything here is a pure function over value types and safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: library-wide default absolute tolerance
DEFAULT_TOL = 1e-12

_MAX_LEVEL = 12
_UMAX = 5.0  # abscissa cutoff; weights below ~1e-100 there


class DomainError(ValueError):
    """Input outside the supported domain."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance."""


class PoleError(ArithmeticError):
    """Evaluation requested at, or too close to, a pole."""


class UnsupportedLatticeError(DomainError):
    """Invariants outside the real rectangular-lattice regime."""


@dataclass(frozen=True)
class Interval:
    """Closed integration interval with ``lo < hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


# --------------------------------------------------------------------------
# tanh-sinh quadrature
#
# Under x = m + (L/2) tanh((pi/2) sinh u) the trapezoid rule in u converges
# doubly exponentially, and the weights decay fast enough to swallow
# integrable endpoint singularities such as (x - a)^(-1/2).  Nodes are
# stored as (fraction-of-length from the nearer endpoint, weight) so the
# abscissae can be formed without cancellation.

_node_cache: dict[int, list[tuple[float, float]]] = {}


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Positive-u abscissae newly introduced at this refinement level."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
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
    _node_cache[level] = nodes
    return nodes


def integrate(f: Callable[[float], float], iv: Interval, tol: float = DEFAULT_TOL) -> float:
    """Integrate ``f`` over ``iv`` to absolute tolerance ``tol``.

    The integrand may blow up like an inverse square root at either
    endpoint.  For full accuracy with a singular endpoint, arrange the
    problem so the singularity sits at 0: offsets from a nonzero endpoint
    are limited by the spacing of floating-point numbers near it, whereas
    offsets from 0 resolve down to the subnormal range.  Nodes that would
    collapse onto an endpoint are skipped.

    Raises ConvergenceError if level-to-level refinement has not settled
    below ``tol`` after the maximum refinement level.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    a, b = iv.lo, iv.hi
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


def gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """The n-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs.

    Only the nodes x > 0 are returned, in decreasing order; -x carries the
    same weight, and n must be even, so no node sits at 0.  For n = 8,
    Newton's method on P_n from the Tricomi start
    cos(pi (i - 1/4)/(n + 1/2)) reaches rounding within five of its eight
    steps.  The weight is 2/((1 - x^2) P_n'^2), with 1 - x^2 formed as
    (1 - x)(1 + x) so the outer weights keep full accuracy.
    """
    if n < 2 or n % 2:
        raise DomainError(f"gauss_legendre needs an even n >= 2, got {n}")
    pairs = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
            x -= p / dp
        pairs.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    return tuple(pairs)


def solve_depressed_cubic(g2: float, g3: float) -> tuple[float, float, float]:
    """Real roots of ``4 t^3 - g2 t - g3 = 0``, sorted descending.

    Only the positive-discriminant case ``g2^3 - 27 g3^2 > 0`` (three
    distinct real roots) is supported; it forces ``g2 > 0``, which the
    trigonometric method needs.  The returned triple sums to zero exactly
    up to roundoff, matching the vanishing quadratic coefficient.
    """
    disc = g2 ** 3 - 27.0 * g3 ** 2
    if not disc > 0.0:
        raise DomainError(f"discriminant g2^3 - 27 g3^2 = {disc:g} is not positive")
    amp = math.sqrt(g2 / 3.0)
    arg = 3.0 * math.sqrt(3.0) * g3 / (g2 * math.sqrt(g2))
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg) / 3.0
    roots = [amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    shift = (roots[0] + roots[1] + roots[2]) / 3.0  # re-center to exact zero sum
    roots = sorted((r - shift for r in roots), reverse=True)
    return roots[0], roots[1], roots[2]


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    for _ in range(60):
        if abs(a - b) <= 4e-16 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)
