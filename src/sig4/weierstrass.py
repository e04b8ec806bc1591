"""Weierstrass p-function machinery for real rectangular lattices.

The supported regime is real invariants (g2, g3) with positive
discriminant g2^3 - 27 g3^2, i.e. three distinct real midpoint values and
a period lattice generated by a positive real period and a purely
imaginary one.  Evaluation anywhere in the complex plane proceeds by

1. rounding the argument to the nearest point of the half-period lattice,
   which leaves a remainder w with |w| <= sqrt(omega^2 + |omega'|^2)/2,
   or DomainError past 2^53 half-periods, where w keeps no digits;
2. summing the nome series for p(w) and p'(w) (DLMF 23.8.1) in the frame
   whose real half-period is the shorter one, where q <= exp(-pi) and
   at most 8 terms reach double precision;
3. unless that point is a full period, adding back the half-period
   omega_a by the exact law (DLMF 23.10), here for p - e_j:
   p(omega_a + w) - e_j = (e_a - e_j) + F_a/(p(w) - e_a).

Each anchor of ``Lattice`` carries its row of root differences, built
from d12, d13 and d23 alone, and F_a = (e_a - e_k)(e_a - e_l):

    anchor          row (e_a, e_a - e1, e_a - e2, e_a - e3)    F_a
    omega           (e1,  0,    d12,  d13)                      d12 d13
    omega'          (e3, -d13, -d23,  0)                        d13 d23
    omega + omega'  (e2, -d12,  0,    d23)                     -d12 d23
    lattice point   the row of e_ref                            None

so the kernel returns p - e_j (j = 0: p) free of cancellation near
omega_j.  ``mobius`` evaluates the Moebius images head + residue/((p -
e_j) - shift) of p that dd, y4 and the quartic solution are.

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
_REACH_LO, _REACH_HI = -(2.0 ** 53), 2.0 ** 53   # half-periods: past them w keeps no digits


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
    the (row, F_a) pairs tabled in the module docstring.
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
    anchors: tuple[tuple[tuple[float, float, float, float], float | None], ...]


def build_lattice(
    inv: Invariants, roots: MidpointTriple, d12: float, d13: float, d23: float
) -> Lattice:
    """Lattice from its invariants, sorted roots and the differences e_i - e_j.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3), 1 - m = (e1-e2)/(e1-e3); each is formed as a
    ratio of differences, so a closed-form triple keeps full relative
    accuracy as two roots merge.  K by AGM, relative error ~1e-15.  The
    anchor rows and factors are the same differences and their products.
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
    r1, r2, r3 = (roots.e1, 0.0, d12, d13), (roots.e2, -d12, 0.0, d23), (roots.e3, -d13, -d23, 0.0)
    anchors = ((r3 if rotated else r1, None), (r1, d12 * d13), (r3, d13 * d23), (r2, -d12 * d23))
    return Lattice(inv, roots, periods, rotated, math.pi / (2 * a), q, terms, dterms, alt, anchors)


@lru_cache(maxsize=512)
def lattice(inv: Invariants) -> Lattice:
    """Lattice of bare invariants, its roots by Viete (``midpoints``); cached."""
    e = midpoints(inv)
    return build_lattice(inv, e, e.e1 - e.e2, e.e1 - e.e3, e.e2 - e.e3)


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods of the lattice of ``inv``; see ``build_lattice``."""
    return lattice(inv).periods


def _evaluate(z: complex, lat: Lattice | Invariants, j: int, prime: bool) -> tuple[complex, complex]:
    """(p - e_j, p') at z, j = 0 giving p itself and p' 0j unless ``prime``."""
    lat = lattice(lat) if isinstance(lat, Invariants) else lat
    hr, hi = lat.periods.half_real, lat.periods.half_imag_mag
    x, y = z.real / hr, z.imag / hi
    if not (_REACH_LO < x < _REACH_HI and _REACH_LO < y < _REACH_HI):
        raise DomainError(f"argument {z} lies 2^53 or more half-periods out")
    sr, si = round(x), round(y)
    w = complex(z.real - sr * hr, z.imag - si * hi)
    row, f = lat.anchors[(sr & 1) | (si & 1) << 1]
    if f is None and abs(w) < _POLE_TOL:
        raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    if f is not None and w == 0:
        return complex(row[j]), 0j
    c, rotated = lat.scale, lat.rotated
    v = c * complex(w.imag, -w.real) if rotated else c * w
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
    if rotated:
        p, dp = -p, 1j * dp
    if f is None:
        return row[j] + p, dp
    q = 1.0 / (p - row[3 if rotated else 1])   # 1/(p(w) - e_a)
    return row[j] + f * q, -f * dp * q * q


def wp(z: complex, lat: Lattice | Invariants) -> complex:
    """Weierstrass p at ``z`` on a lattice, or on the lattice of bare invariants."""
    return _evaluate(z, lat, 0, False)[0]


def wp_prime(z: complex, lat: Lattice | Invariants) -> complex:
    """Derivative p' at ``z``; vanishes at the half-period points."""
    return _evaluate(z, lat, 0, True)[1]


def mobius(z: complex, lat: Lattice, j: int, shift: float, head: float, residue: float) -> complex:
    """head + residue/((p - e_j) - shift) at ``z``: ``head`` at the lattice points,
    PoleError where |value - head| would pass 1/_POLE_TOL or, for absolute p
    (j = 0, whose rounding is absolute), where |denominator| < _POLE_TOL."""
    try:
        p = _evaluate(z, lat, j, False)[0]
    except PoleError:
        return complex(head)
    denom = p - shift
    if abs(denom) < _POLE_TOL * (abs(residue) if j else max(abs(residue), 1.0)):
        raise PoleError("argument congruent to a pole of the Moebius image of p")
    return head + residue / denom

