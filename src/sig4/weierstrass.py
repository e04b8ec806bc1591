"""Weierstrass p-function machinery for real rectangular lattices.

The supported regime is real invariants (g2, g3) with positive
discriminant g2^3 - 27 g3^2, i.e. three distinct real midpoint values and
a period lattice generated by a positive real period and a purely
imaginary one.  Evaluation anywhere in the complex plane proceeds by

1. reducing the argument into the centered fundamental cell,
2. halving it until it is small against the shortest half-period,
3. summing the truncated Laurent series for p and p' there,
4. undoing the halvings with the algebraic duplication formula.

This is self-contained and uniformly accurate over the cell; theta-based
evaluation is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numerics import DomainError, PoleError, agm, solve_depressed_cubic

_N_COEFFS = 13   # Laurent coefficients c_2 .. c_13
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class Invariants:
    """Invariant pair (g2, g3) of a quartic/cubic and of its p-function."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise DomainError("invariants must be finite reals")

    @property
    def discriminant(self) -> float:
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


@dataclass(frozen=True)
class MidpointTriple:
    """Values of p at the three half-period points, e1 > e2 > e3."""

    e1: float
    e2: float
    e3: float


@dataclass(frozen=True)
class PeriodPair:
    """Fundamental half-periods of a rectangular lattice.

    ``half_real`` is the positive real half-period; the imaginary
    half-period is ``1j * half_imag_mag``.
    """

    half_real: float
    half_imag_mag: float


def midpoints(inv: Invariants) -> MidpointTriple:
    """Roots of 4 t^3 - g2 t - g3, descending: the critical values of p."""
    if not inv.discriminant > 0.0:
        raise DomainError(
            f"rectangular lattice needs positive discriminant, got {inv.discriminant:g}"
        )
    e1, e2, e3 = solve_depressed_cubic(inv.g2, inv.g3)
    return MidpointTriple(e1, e2, e3)


def _complete_k(m: float) -> float:
    """Complete elliptic integral K(m) by the arithmetic-geometric mean."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods from the midpoint values.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3); K by AGM, relative error ~1e-15.
    """
    e = midpoints(inv)
    root = math.sqrt(e.e1 - e.e3)
    m = (e.e2 - e.e3) / (e.e1 - e.e3)
    return PeriodPair(_complete_k(m) / root, _complete_k(1.0 - m) / root)


@lru_cache(maxsize=512)
def _lattice(inv: Invariants) -> tuple[MidpointTriple, PeriodPair, tuple[float, ...]]:
    """Midpoints, periods and Laurent coefficients, cached per invariants."""
    mid = midpoints(inv)
    periods = half_periods(inv)
    c = [0.0] * (_N_COEFFS + 1)
    c[2] = inv.g2 / 20.0
    c[3] = inv.g3 / 28.0
    for k in range(4, _N_COEFFS + 1):
        c[k] = 3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    return mid, periods, tuple(c)


def lattice_reduce(z: complex, pp: PeriodPair) -> complex:
    """Translate ``z`` by full periods into the centered fundamental cell.

    Components land in (-half, half] of the respective full period, so a
    point congruent to a half-period reduces to the positive half-period.
    """
    z = complex(z)
    pr = 2.0 * pp.half_real
    pi_ = 2.0 * pp.half_imag_mag
    mr = math.ceil(z.real / pr - 0.5)
    mi = math.ceil(z.imag / pi_ - 0.5)
    return complex(z.real - mr * pr, z.imag - mi * pi_)


def _series_pair(z: complex, coeffs: tuple[float, ...]) -> tuple[complex, complex]:
    # p = 1/z^2 + sum c_k z^(2k-2),  p' = -2/z^3 + sum (2k-2) c_k z^(2k-3)
    z2 = z * z
    p = 1.0 / z2
    dp = -2.0 / (z2 * z)
    zpow = 1.0 + 0.0j
    for k in range(2, _N_COEFFS + 1):
        zpow *= z2
        p += coeffs[k] * zpow
        dp += (2 * k - 2) * coeffs[k] * zpow / z
    return p, dp


def _duplicate(p: complex, dp: complex, g2: float, g3: float) -> tuple[complex, complex]:
    # p(2z) = -2p + (p'')^2 / (4 p'^2) with p'' = 6p^2 - g2/2, p'^2 the cubic
    second = 6.0 * p * p - 0.5 * g2
    cubic = 4.0 * p ** 3 - g2 * p - g3
    p2 = -2.0 * p + second * second / (4.0 * cubic)
    dp2 = -dp + second * (12.0 * p * dp * dp - second * second) / (4.0 * dp ** 3)
    return p2, dp2


def _wp_pair(z: complex, inv: Invariants) -> tuple[complex, complex]:
    _, periods, coeffs = _lattice(inv)
    zr = lattice_reduce(z, periods)
    if abs(zr) < _POLE_TOL:
        raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    threshold = 0.5 * min(periods.half_real, periods.half_imag_mag)
    halvings = 0
    while abs(zr) >= threshold:
        zr *= 0.5
        halvings += 1
    p, dp = _series_pair(zr, coeffs)
    for _ in range(halvings):
        p, dp = _duplicate(p, dp, inv.g2, inv.g3)
    return p, dp


def wp(z: complex, inv: Invariants) -> complex:
    """Weierstrass p at ``z`` for the given invariants."""
    return _wp_pair(z, inv)[0]


def wp_prime(z: complex, inv: Invariants) -> complex:
    """Derivative p' at ``z``; vanishes at the half-period points."""
    return _wp_pair(z, inv)[1]


def wp_quarter_values(inv: Invariants) -> tuple[float, float]:
    """p at half of the real half-period, and at that point plus the imaginary one.

    Closed forms in the midpoint values:
        p(half_real/2)          = e1 + sqrt((e1-e2)(e1-e3))
        p(half_real/2 + imag)   = e1 - sqrt((e1-e2)(e1-e3))
    """
    e = midpoints(inv)
    root = math.sqrt((e.e1 - e.e2) * (e.e1 - e.e3))
    return e.e1 + root, e.e1 - root
