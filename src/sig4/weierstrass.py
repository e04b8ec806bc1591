"""Weierstrass p-function machinery for real rectangular lattices.

The supported regime is real invariants (g2, g3) with positive
discriminant g2^3 - 27 g3^2, i.e. three distinct real midpoint values and
a period lattice generated by a positive real period and a purely
imaginary one.  Evaluation anywhere in the complex plane proceeds by

1. rounding the argument to the nearest point of the half-period lattice,
   which leaves a remainder w with |w| <= sqrt(omega^2 + |omega'|^2)/2;
2. summing the nome series for p(w) and p'(w) (DLMF 23.8.1) in the frame
   whose real half-period is the shorter one, where q <= exp(-pi) and
   at most 8 terms reach double precision;
3. unless that point is a full period, adding back the half-period
   omega_j by the exact law p(omega_j + w) = e_j + (e_j - e_k)(e_j - e_l)
   /(p(w) - e_j) (DLMF 23.10), free of cancellation near omega_j.

Everything an evaluation reads sits in one frozen ``Lattice``, built
once.  The dd and y4 lattices are built from their closed-form roots; bare
invariants get theirs from the cubic by Viete, once, in the cached
``lattice``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .numerics import DomainError, PoleError, agm, solve_depressed_cubic

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

    The series frame has real half-period a = min(omega, |omega'|), imaginary
    one b = max(omega, |omega'|), and is entered by z -> -iz when ``rotated``
    (omega > |omega'|), as p(z; L) = -p(-iz; -iL).  With ``scale`` c = pi/(2a),
    ``nome`` q = exp(-pi b/a), v = c w and b_n = n q^(2n)/(1 - q^(2n)) there,
        p - e_ref = c^2 [cot^2 v - 8 (sum b_n cos 2nv - alt)],
        p'        = c^3 [sum 16 n b_n sin 2nv - 2 cot v / sin^2 v],
    ``terms`` and ``dterms`` hold b_n and 16 n b_n for n = N .. 1, ``alt`` is
    sum (-1)^n b_n, and e_ref is e1, or e3 when rotated.  ``anchors``, indexed
    by the parities of the nearest half-period point (real bit first), holds
    (e_j, F_j, e_ref - e_j) with F_j = (e_j - e_k)(e_j - e_l), and
    (e_ref, None, 0.0) for a lattice point.
    """

    invariants: Invariants
    roots: MidpointTriple
    periods: PeriodPair
    rotated: bool
    scale: float
    nome: float
    terms: tuple[float, ...]
    dterms: tuple[float, ...]
    alt: float
    anchors: tuple[tuple[float, float | None, float], ...]


def build_lattice(
    inv: Invariants, roots: MidpointTriple, d12: float, d13: float, d23: float
) -> Lattice:
    """Lattice from its invariants, sorted roots and the differences e_i - e_j.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3), 1 - m = (e1-e2)/(e1-e3); each is formed as a
    ratio of differences, so a closed-form triple keeps full relative
    accuracy as two roots merge.  K by AGM, relative error ~1e-15.  The
    anchor data are products and sums of the same differences.
    """
    root = math.sqrt(d13)
    periods = PeriodPair(_complete_k(d12 / d13) / root, _complete_k(d23 / d13) / root)
    rotated = periods.half_real > periods.half_imag_mag
    a, b = sorted((periods.half_real, periods.half_imag_mag))
    q = math.exp(-math.pi * b / a)
    # |Im v| <= pi b/(4a) on the anchored cell, so term n is at most about
    # 4 n q^(1.5 n); keep it while that is >= 2^-56, at most n = 8 for q <= e^-pi
    ns = [n for n in range(9, 0, -1) if 4 * n * q ** (1.5 * n) >= 2.0 ** -56]
    terms = tuple(n * q ** (2 * n) / (1.0 - q ** (2 * n)) for n in ns)
    dterms = tuple(16 * n * bn for n, bn in zip(ns, terms))
    alt = sum((-1) ** n * bn for n, bn in zip(ns, terms))
    e_ref, gaps = (roots.e3, (-d13, 0.0, -d23)) if rotated else (roots.e1, (0.0, d13, d12))
    factors = (d12 * d13, d13 * d23, -d12 * d23)   # F_j of the anchors e1, e3, e2
    anchors = ((e_ref, None, 0.0),) + tuple(zip((roots.e1, roots.e3, roots.e2), factors, gaps))
    return Lattice(inv, roots, periods, rotated, math.pi / (2 * a), q, terms, dterms, alt, anchors)


@lru_cache(maxsize=512)
def lattice(inv: Invariants) -> Lattice:
    """Lattice of bare invariants, its roots by Viete (``midpoints``); cached."""
    e = midpoints(inv)
    return build_lattice(inv, e, e.e1 - e.e2, e.e1 - e.e3, e.e2 - e.e3)


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods of the lattice of ``inv``; see ``build_lattice``."""
    return lattice(inv).periods


def _evaluate(z: complex, lat: Lattice | Invariants, prime: bool) -> tuple[complex, complex]:
    """p at z and, if ``prime``, p' (else 0j), by the series of ``Lattice``."""
    lat = lattice(lat) if isinstance(lat, Invariants) else lat
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    sr, si = round(z.real / hr), round(z.imag / hi)
    w = complex(z.real - sr * hr, z.imag - si * hi)
    e, f, gap = lat.anchors[(sr & 1) | (si & 1) << 1]
    if f is None and abs(w) < _POLE_TOL:
        raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    if f is not None and w == 0:
        return complex(e), 0j
    c = lat.scale
    v = c * complex(w.imag, -w.real) if lat.rotated else c * w
    sin_v, cos_v = cmath.sin(v), cmath.cos(v)
    cot = cos_v / sin_v
    # Clenshaw's form of the Chebyshev recurrence in x = cos 2v, twice = 2x:
    # sum b_n cos 2nv = x b1 - b2 (T_n), sum 16 n b_n sin 2nv = sin 2v s1 (U_(n-1))
    twice = 2.0 * (cos_v * cos_v - sin_v * sin_v)
    b1 = b2 = s1 = s2 = dp = 0j
    for bn in lat.terms:
        b1, b2 = bn + twice * b1 - b2, b1
    if prime:
        for dbn in lat.dterms:
            s1, s2 = dbn + twice * s1 - s2, s1
        dp = c * c * c * (2.0 * sin_v * cos_v * s1 - 2.0 * cot / (sin_v * sin_v))
    p = c * c * (cot * cot - 8.0 * (0.5 * twice * b1 - b2 - lat.alt))   # p(w) - e_ref
    if lat.rotated:
        p, dp = -p, 1j * dp
    if f is None:
        return e + p, dp
    q = 1.0 / (p + gap)
    return e + f * q, -f * dp * q * q


def wp(z: complex, lat: Lattice | Invariants) -> complex:
    """Weierstrass p at ``z`` on a lattice, or on the lattice of bare invariants."""
    return _evaluate(z, lat, False)[0]


def wp_prime(z: complex, lat: Lattice | Invariants) -> complex:
    """Derivative p' at ``z``; vanishes at the half-period points."""
    return _evaluate(z, lat, True)[1]


def wp_quarter_values(lat: Lattice | Invariants) -> tuple[float, float]:
    """p at half of the real half-period, and at that point plus the imaginary one.

    Closed forms in the midpoint values:
        p(half_real/2)          = e1 + sqrt((e1-e2)(e1-e3))
        p(half_real/2 + imag)   = e1 - sqrt((e1-e2)(e1-e3))
    """
    e = (lattice(lat) if isinstance(lat, Invariants) else lat).roots
    root = math.sqrt((e.e1 - e.e2) * (e.e1 - e.e3))
    return e.e1 + root, e.e1 - root
