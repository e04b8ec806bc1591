"""Weierstrass p-function machinery for real rectangular lattices.

The supported regime is real invariants (g2, g3) with positive
discriminant g2^3 - 27 g3^2, i.e. three distinct real midpoint values and
a period lattice generated by a positive real period and a purely
imaginary one.  Evaluation anywhere in the complex plane proceeds by

1. rounding the argument to the nearest point of the half-period lattice,
   which leaves a remainder w with |w| <= sqrt(omega^2 + |omega'|^2)/2,
   or DomainError past 2^53 half-periods, where w keeps no digits;
2. the four Jacobi thetas at w, each a fixed cubic in cos 2v, in the
   frame whose real half-period is the shorter one, where q <= exp(-pi);
3. p - e_j = head + K (theta_N/theta_D)^2 (DLMF 23.6.2-4, moved to the
   anchor by the half-period shifts of DLMF 20.2(iii)), and p' likewise.

K is a product of the root differences d12, d13 and d23, and no root gap
is ever added, so p - e_j (j = 0: p) keeps its relative accuracy however
close two roots are.  ``mobius`` evaluates the Moebius images head +
residue/((p - e_j) - shift) of p that dd, y4 and the quartic solution are.

Everything an evaluation reads sits in one immutable ``Lattice``, built
once.  The dd and y4 lattices are built from their closed-form roots; bare
invariants get theirs from the cubic by Viete, once, in the cached
``lattice``.  Their discriminant is checked only there, by
``numerics.solve_depressed_cubic``, which raises UnsupportedLatticeError for
a non-rectangular lattice: ``wp``, ``wp_prime``, ``midpoints`` and
``half_periods`` on such invariants raise it.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from .numerics import DomainError, PoleError, agm, solve_depressed_cubic

_POLE_TOL = 1e-12
_REACH_LO, _REACH_HI = -(2.0 ** 53), 2.0 ** 53   # half-periods: past them w keeps no digits


class Invariants(NamedTuple("Invariants", [("g2", float), ("g3", float)])):
    """Invariant pair (g2, g3) of a quartic/cubic and of its p-function."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))   # so that _replace validates too

    def __new__(cls, g2: float, g3: float) -> Invariants:
        if not (math.isfinite(g2) and math.isfinite(g3)):
            raise DomainError("invariants must be finite reals")
        return tuple.__new__(cls, (g2, g3))

    @property
    def discriminant(self) -> float:
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


class MidpointTriple(NamedTuple):
    """Values of p at the three half-period points, e1 > e2 > e3."""

    e1: float
    e2: float
    e3: float


class PeriodPair(NamedTuple):
    """Fundamental half-periods of a rectangular lattice.

    ``half_real`` is the positive real half-period; the imaginary
    half-period is ``1j * half_imag_mag``.
    """

    half_real: float
    half_imag_mag: float


def midpoints(inv: Invariants) -> MidpointTriple:
    """Roots of 4 t^3 - g2 t - g3, descending: the critical values of p."""
    e1, e2, e3 = solve_depressed_cubic(inv.g2, inv.g3)
    return MidpointTriple(e1, e2, e3)


def _complete_k(m_c: float) -> float:
    """Complete elliptic integral K(m) by the AGM, given m_c = 1 - m."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(m_c)))


class Lattice(NamedTuple):
    """One rectangular lattice, computed once: what every p evaluation reads.

    The theta frame has real half-period a = min(omega, |omega'|), and is
    entered by z -> -iz when ``rotated`` (omega > |omega'|), as p(z; L) =
    -p(-iz; -iL): root j of L is then root 4 - j of the frame, negated.
    With ``scale`` c = pi/(2a), ``nome`` q <= exp(-pi), v = c w, x = cos 2v,
    theta1 = sin v A(x), theta2 = cos v A(-x), theta3 = G(x) and
    theta4 = G(-x); ``theta`` holds the coefficients (a0, a2, a1, a3, g0,
    g2, g1, g3) of the cubics A and G.  At omega_anchor + w, anchor the
    parities of the nearest half-period point (real bit first),
    ``table[anchor][j]`` = (N, D, K, head) and ``slopes[anchor]`` = K' give
        p - e_j = head + K (theta_N/theta_D)^2   (j = 0: p itself),
        p'      = K' theta1 theta2 theta3 theta4 / theta_D^4.
    N, D and the signs of K and K' depend only on ``rotated``, so the table
    is filled from one of two per-frame templates made once at import.
    """

    invariants: Invariants
    roots: MidpointTriple
    periods: PeriodPair
    rotated: bool
    scale: float
    nome: float
    theta: tuple[float, ...]
    table: tuple[tuple[tuple[int, int, float, float], ...], ...]
    slopes: tuple[complex, ...]


# DLMF 20.2(iii): moving v to the frame's half-period omega_k (by pi/2, pi/2 +
# pi tau/2 and pi tau/2 for k = 1, 2, 3) permutes the thetas up to one factor.
# Row k, column j - 1 is (N, D, sign) of p(omega_k + w) - e_j = sign K
# (theta_N/theta_D)^2; _SLOPE_SIGNS[k] is that of p' = +-K' theta1..theta4/theta_D^4.
_SHIFTS = (
    ((2, 1, 1.0), (3, 1, 1.0), (4, 1, 1.0)),
    ((1, 2, 1.0), (4, 2, 1.0), (3, 2, 1.0)),
    ((4, 3, -1.0), (1, 3, -1.0), (2, 3, 1.0)),
    ((3, 4, -1.0), (2, 4, -1.0), (1, 4, 1.0)),
)
_SLOPE_SIGNS = (-1.0, 1.0, -1.0, 1.0)
_ANCHOR_ROOTS = (0, 1, 3, 2)   # parities (real bit first) -> root index of the anchor


def _frame_template(
    rotated: bool,
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[float, ...]]:
    """One frame's table, row after row, as (N, D, index of K, index of head)
    into the values (0.0, e1, e2, e3, k1, k2, k3, -k1, -k2, -k3) of
    ``build_lattice``; and its slope signs.

    In the rotated frame root j of the lattice is root 4 - j of the frame, negated.
    """
    frame = (0, 3, 2, 1) if rotated else (0, 1, 2, 3)   # root index <-> frame root index
    sign = -1.0 if rotated else 1.0   # p = -p_frame
    entries = []
    for k in _ANCHOR_ROOTS:
        row = []
        for j in (1, 2, 3):
            n, d, s = _SHIFTS[frame[k]][frame[j] - 1]
            row.append((n, d, j + (3 if sign * s > 0.0 else 6), 0))
        own = k or frame[1]   # p itself from the frame's own anchor, e_ref at the lattice point
        entries += [row[own - 1][:3] + (own,)] + row
    return tuple(entries), tuple(_SLOPE_SIGNS[frame[k]] for k in _ANCHOR_ROOTS)


_TEMPLATES = (_frame_template(False), _frame_template(True))   # indexed by ``rotated``


def build_lattice(
    inv: Invariants, roots: MidpointTriple, d12: float, d13: float, d23: float
) -> Lattice:
    """Lattice from its invariants, sorted roots and the differences e_i - e_j.

    half_real = K(m)/sqrt(e1-e3) and half_imag_mag = K(1-m)/sqrt(e1-e3)
    with m = (e2-e3)/(e1-e3), 1 - m = (e1-e2)/(e1-e3); each is formed as a
    ratio of differences, so a closed-form triple keeps full relative
    accuracy as two roots merge.  K by AGM, relative error ~1e-15.  The
    constants K of p - e_j are the products sqrt(d12 d13), sqrt(d12 d23) and
    sqrt(d13 d23) of the same differences.  A and G keep the harmonics to
    sin 7v and cos 6v: on the anchored cell |Im v| <= pi b/(4a), so the
    first left out is below q^14 <= 2^-56 of the sum.  Which theta pair and
    sign each anchor and root takes depends only on the frame, so both
    frames' tables are made once at import (``_TEMPLATES``); a build forms
    the K values, the heads and the slopes and fills them in.
    """
    root = math.sqrt(d13)
    periods = PeriodPair(_complete_k(d12 / d13) / root, _complete_k(d23 / d13) / root)
    hr, hi = periods
    rotated = hr > hi
    a, b = (hi, hr) if rotated else (hr, hi)
    q = math.exp(-math.pi * b / a)
    # sin((2n+1)v)/sin v and cos 2nv as polynomials in x, n = 0 .. 3
    lead, q2, q4, q6, q9, q12 = 2.0 * q ** 0.25, q * q, q ** 4, q ** 6, q ** 9, q ** 12
    theta = (lead * (1.0 - q2 - q6 + q12), lead * 4.0 * (q6 - q12),
             lead * 2.0 * (q6 + 2.0 * q12 - q2), -8.0 * lead * q12,
             1.0 - 2.0 * q4, 4.0 * q4, 2.0 * q - 6.0 * q9, 8.0 * q9)
    k1, k2, k3 = math.sqrt(d12 * d13), math.sqrt(d12 * d23), math.sqrt(d13 * d23)
    values = (0.0, roots.e1, roots.e2, roots.e3, k1, k2, k3, -k1, -k2, -k3)
    template, (s0, s1, s2, s3) = _TEMPLATES[rotated]
    cells = tuple([(n, d, values[k], values[h]) for n, d, k, h in template])
    turn = 1j if rotated else 1.0   # p' = i p'_frame
    slope = 2.0 * turn * k1 * math.sqrt(d23)   # p'^2 = 4 (p - e1)(p - e2)(p - e3)
    return Lattice(inv, roots, periods, rotated, math.pi / (2 * a), q, theta,
                   (cells[0:4], cells[4:8], cells[8:12], cells[12:16]),
                   (s0 * slope, s1 * slope, s2 * slope, s3 * slope))


@lru_cache(maxsize=512)
def lattice(inv: Invariants) -> Lattice:
    """Lattice of bare invariants, its roots by Viete (``midpoints``); cached."""
    e = midpoints(inv)
    return build_lattice(inv, e, e.e1 - e.e2, e.e1 - e.e3, e.e2 - e.e3)


def half_periods(inv: Invariants) -> PeriodPair:
    """Half-periods of the lattice of ``inv``; see ``build_lattice``."""
    return lattice(inv).periods


def _far_argument(z: complex) -> DomainError:
    """The error for an argument past 2^53 half-periods, whose reduction keeps no digits."""
    return DomainError(f"argument {z} lies 2^53 or more half-periods out")


def _evaluate(z: complex, lat: Lattice, j: int, prime: bool) -> tuple[complex, complex]:
    """(p - e_j, p') at z, j = 0 giving p itself; unless ``prime``, p' is 0j
    and only theta_N and theta_D are formed."""
    _, _, (hr, hi), rotated, scale, _, coeffs, table, slopes = lat
    x, y = z.real / hr, z.imag / hi
    if not (_REACH_LO < x < _REACH_HI and _REACH_LO < y < _REACH_HI):
        raise _far_argument(z)
    sr, si = round(x), round(y)
    w = complex(z.real - sr * hr, z.imag - si * hi)
    anchor = (sr & 1) | (si & 1) << 1
    if not anchor and abs(w) < _POLE_TOL:
        raise PoleError(f"p-function pole: argument within {_POLE_TOL:g} of the lattice")
    v = scale * (complex(w.imag, -w.real) if rotated else w)
    sin_v = cmath.sin(v)
    t = 1.0 - 2.0 * sin_v * sin_v   # cos 2v
    tt = t * t
    a0, a2, a1, a3, g0, g2, g1, g3 = coeffs
    n, d, k, head = table[anchor][j]
    if prime or n < 3 or d < 3:
        a_even, a_odd = a0 + a2 * tt, (a1 + a3 * tt) * t
    if prime or n > 2 or d > 2:
        g_even, g_odd = g0 + g2 * tt, (g1 + g3 * tt) * t
    if not prime:
        num = (sin_v * (a_even + a_odd) if n == 1 else cmath.cos(v) * (a_even - a_odd) if n == 2
               else g_even + g_odd if n == 3 else g_even - g_odd)
        den = (sin_v * (a_even + a_odd) if d == 1 else cmath.cos(v) * (a_even - a_odd) if d == 2
               else g_even + g_odd if d == 3 else g_even - g_odd)
        ratio = num / den
        return head + k * ratio * ratio, 0j
    theta = (0j, sin_v * (a_even + a_odd), cmath.cos(v) * (a_even - a_odd),
             g_even + g_odd, g_even - g_odd)
    ratio = theta[n] / theta[d]
    den = theta[d] * theta[d]
    p = head + k * ratio * ratio
    return p, slopes[anchor] * theta[1] * theta[2] * theta[3] * theta[4] / (den * den)


def wp(z: complex, lat: Lattice | Invariants) -> complex:
    """Weierstrass p at ``z`` on a lattice, or on the lattice of bare invariants."""
    return _evaluate(z, lattice(lat) if isinstance(lat, Invariants) else lat, 0, False)[0]


def wp_prime(z: complex, lat: Lattice | Invariants) -> complex:
    """Derivative p' at ``z``; vanishes at the half-period points."""
    return _evaluate(z, lattice(lat) if isinstance(lat, Invariants) else lat, 0, True)[1]


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

