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

Everything an evaluation reads (invariants, sorted roots, half-periods,
Laurent coefficients) sits in one frozen ``Lattice``, built once.  The dd
and y4 lattices are built from their closed-form roots; bare invariants
get theirs from the cubic by Viete, once, in the cached ``lattice``.
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


def _complete_k(m_c: float) -> float:
    """Complete elliptic integral K(m) by the AGM, given m_c = 1 - m."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(m_c)))


@dataclass(frozen=True)
class Lattice:
    """One rectangular lattice, computed once: what every p evaluation reads.

    ``coeffs`` are the Laurent coefficients c_0 .. c_13 (c_0 = c_1 = 0) of
    p = 1/z^2 + sum c_k z^(2k-2).
    """

    invariants: Invariants
    roots: MidpointTriple
    periods: PeriodPair
    coeffs: tuple[float, ...]


def build_lattice(
    inv: Invariants, roots: MidpointTriple, d12: float, d13: float, d23: float
) -> Lattice:
    """Lattice from its invariants, sorted roots and the differences e_i - e_j.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3), 1 - m = (e1-e2)/(e1-e3); each is formed as a
    ratio of differences, so a closed-form triple keeps full relative
    accuracy as two roots merge.  K by AGM, relative error ~1e-15.
    """
    root = math.sqrt(d13)
    periods = PeriodPair(_complete_k(d12 / d13) / root, _complete_k(d23 / d13) / root)
    c = [0.0] * (_N_COEFFS + 1)
    c[2] = inv.g2 / 20.0
    c[3] = inv.g3 / 28.0
    for k in range(4, _N_COEFFS + 1):
        c[k] = 3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    return Lattice(inv, roots, periods, tuple(c))


@lru_cache(maxsize=512)
def lattice(inv: Invariants) -> Lattice:
    """Lattice of bare invariants, its roots by Viete (``midpoints``); cached."""
    e = midpoints(inv)
    return build_lattice(inv, e, e.e1 - e.e2, e.e1 - e.e3, e.e2 - e.e3)


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods of the lattice of ``inv``; see ``build_lattice``."""
    return lattice(inv).periods


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


def _duplicate(p: complex, dp: complex, e: MidpointTriple) -> tuple[complex, complex]:
    # p(2z) = -2p + (p'')^2 / (4 p'^2), with p'^2 = 4(p-e1)(p-e2)(p-e3) and
    # p'' = 2 sum (p-ei)(p-ej) taken from the roots: no cancellation near a root
    a, b, c = p - e.e1, p - e.e2, p - e.e3
    second = 2.0 * (a * b + a * c + b * c)
    p2 = -2.0 * p + second * second / (16.0 * a * b * c)
    dp2 = -dp + second * (12.0 * p * dp * dp - second * second) / (4.0 * dp ** 3)
    return p2, dp2


def _resolve(lat: Lattice | Invariants) -> Lattice:
    return lattice(lat) if isinstance(lat, Invariants) else lat


def _wp_pair(z: complex, lat: Lattice | Invariants) -> tuple[complex, complex]:
    lat = _resolve(lat)
    periods = lat.periods
    zr = lattice_reduce(z, periods)
    if abs(zr) < _POLE_TOL:
        raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    threshold = 0.5 * min(periods.half_real, periods.half_imag_mag)
    halvings = 0
    while abs(zr) >= threshold:
        zr *= 0.5
        halvings += 1
    p, dp = _series_pair(zr, lat.coeffs)
    for _ in range(halvings):
        p, dp = _duplicate(p, dp, lat.roots)
    return p, dp


def wp(z: complex, lat: Lattice | Invariants) -> complex:
    """Weierstrass p at ``z`` on a lattice, or on the lattice of bare invariants."""
    return _wp_pair(z, lat)[0]


def wp_prime(z: complex, lat: Lattice | Invariants) -> complex:
    """Derivative p' at ``z``; vanishes at the half-period points."""
    return _wp_pair(z, lat)[1]


def wp_quarter_values(lat: Lattice | Invariants) -> tuple[float, float]:
    """p at half of the real half-period, and at that point plus the imaginary one.

    Closed forms in the midpoint values:
        p(half_real/2)          = e1 + sqrt((e1-e2)(e1-e3))
        p(half_real/2 + imag)   = e1 - sqrt((e1-e2)(e1-e3))
    """
    e = _resolve(lat).roots
    root = math.sqrt((e.e1 - e.e2) * (e.e1 - e.e3))
    return e.e1 + root, e.e1 - root
