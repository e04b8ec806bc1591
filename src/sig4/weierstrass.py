"""Weierstrass p-function machinery for real rectangular lattices.

The supported regime is real invariants (g2, g3) with positive
discriminant g2^3 - 27 g3^2, i.e. three distinct real midpoint values and
a period lattice generated by a positive real period and a purely
imaginary one.  Evaluation anywhere in the complex plane proceeds by

1. rounding the argument to the nearest point of the half-period lattice,
   which leaves a remainder w with |w| <= sqrt(omega^2 + |omega'|^2)/2;
2. halving w until it is small against the shortest half-period;
3. summing the truncated Laurent series for p and p' there, by Horner's
   rule in w^2, and undoing the halvings with the duplication formula;
4. adding back a half-period anchor omega_j by the exact addition law
   p(omega_j + w) = e_j + (e_j - e_k)(e_j - e_l)/(p(w) - e_j) (DLMF 23.10),
   which yields p - e_j without cancellation near omega_j; an anchor on a
   full period needs no step 4.

This is self-contained and uniformly accurate over the cell; theta-based
evaluation is deliberately out of scope.

Everything an evaluation reads (invariants, sorted roots, half-periods,
Horner coefficients, the halving threshold, the anchor data) sits in one
frozen ``Lattice``, built once.  The dd and y4 lattices are built from
their closed-form roots; bare invariants get theirs from the cubic by
Viete, once, in the cached ``lattice``.
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

    ``horner`` holds the pairs (c_k, (2k-2) c_k) for k = 13 .. 2, where
    p = 1/z^2 + sum c_k z^(2k-2).  ``threshold`` is the radius below which
    the series is summed without halving.  ``anchors`` is indexed by the
    parities of the nearest half-period point, real bit first: None for a
    lattice point, else (e_j, F_j) with F_j = (e_j - e_k)(e_j - e_l).
    """

    invariants: Invariants
    roots: MidpointTriple
    periods: PeriodPair
    horner: tuple[tuple[float, float], ...]
    threshold: float
    anchors: tuple[tuple[float, float] | None, ...]


def build_lattice(
    inv: Invariants, roots: MidpointTriple, d12: float, d13: float, d23: float
) -> Lattice:
    """Lattice from its invariants, sorted roots and the differences e_i - e_j.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3), 1 - m = (e1-e2)/(e1-e3); each is formed as a
    ratio of differences, so a closed-form triple keeps full relative
    accuracy as two roots merge.  K by AGM, relative error ~1e-15.  The
    anchor factors F_j are products of the same differences.
    """
    root = math.sqrt(d13)
    periods = PeriodPair(_complete_k(d12 / d13) / root, _complete_k(d23 / d13) / root)
    c = [0.0] * (_N_COEFFS + 1)
    c[2] = inv.g2 / 20.0
    c[3] = inv.g3 / 28.0
    for k in range(4, _N_COEFFS + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 / ((2 * k + 1) * (k - 3)) * acc
    horner = tuple((c[k], (2 * k - 2) * c[k]) for k in range(_N_COEFFS, 1, -1))
    threshold = 0.5 * min(periods.half_real, periods.half_imag_mag)
    anchors = (None, (roots.e1, d12 * d13), (roots.e3, d13 * d23), (roots.e2, -d12 * d23))
    return Lattice(inv, roots, periods, horner, threshold, anchors)


@lru_cache(maxsize=512)
def lattice(inv: Invariants) -> Lattice:
    """Lattice of bare invariants, its roots by Viete (``midpoints``); cached."""
    e = midpoints(inv)
    return build_lattice(inv, e, e.e1 - e.e2, e.e1 - e.e3, e.e2 - e.e3)


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods of the lattice of ``inv``; see ``build_lattice``."""
    return lattice(inv).periods


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
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    sr = round(z.real / hr)
    si = round(z.imag / hi)
    w = complex(z.real - sr * hr, z.imag - si * hi)
    anchor = lat.anchors[(sr & 1) | (si & 1) << 1]
    if anchor is None:
        if abs(w) < _POLE_TOL:
            raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    elif w == 0:
        return complex(anchor[0]), 0j
    halvings = 0
    while abs(w) >= lat.threshold:
        w *= 0.5
        halvings += 1
    # p = 1/s + s A(s), p' = w B(s) - 2/(s w), s = w^2: Horner over the pairs
    s = w * w
    a = b = 0.0
    for ck, dk in lat.horner:
        a = a * s + ck
        b = b * s + dk
    p = 1.0 / s + s * a
    dp = w * b - 2.0 / (s * w)
    for _ in range(halvings):
        p, dp = _duplicate(p, dp, lat.roots)
    if anchor is None:
        return p, dp
    e, f = anchor
    q = 1.0 / (p - e)
    return e + f * q, -f * dp * q * q


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
