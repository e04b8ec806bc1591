"""The Gauss function 2F1 at the two signature-four parameter triples.

Both values the package needs have closed forms, and production code
uses only those:

* 2F1(1/4, 3/4; 1/2; sin^2 z) = cos(z/2)/cos(z), the integrand of the
  forward integral of ``dd``, which integrates it in closed form by
  Carlson's R_F,
* 2F1(1/4, 3/4; 1; k^2) = 1/AGM(sqrt(1+k), sqrt(1-k))  (``complete_f``),
  by the quadratic transformation (DLMF 15.8; Berndt, Bhargava and
  Garvan, Trans. AMS 347, 1995).

The plain power series ``hyp2f1`` is kept as the independent reference
the tests hold the closed forms to.  It is no route for the extremes of
the modulus: kappa -> 1 takes the argument kappa^2 sin^2 t to 1 near
t = pi/2, and kappa -> 0 takes the complementary argument lam^2 to 1,
where the series needs thousands of terms or fails to converge.
"""

from __future__ import annotations

import math

from .numerics import ConvergenceError, DomainError, agm

_MAX_TERMS = 20000


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Power series sum of 2F1(a, b; c; x) for 0 <= x < 1.

    Each term is the one before times (a + n)(b + n)/((c + n)(1 + n)) x.
    Truncates once a term drops below 1e-16 of the partial sum; relative
    error is below 1e-13 for x <= 0.9 with the triples used here.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"series argument must lie in [0, 1), got {x}")
    if c <= 0.0 and c == int(c):
        raise DomainError(f"c={c} is a non-positive integer")
    total = term = 1.0
    for n in range(_MAX_TERMS - 1):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * x
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ConvergenceError(f"2F1 series did not converge at x={x} within {_MAX_TERMS} terms")


def complete_f(k: float, k_c: float) -> float:
    """2F1(1/4, 3/4; 1; k^2), the complete value entering every period formula.

    Takes the modulus ``k`` in [0, 1) and its complement
    ``k_c = sqrt(1 - k^2)``, not m = k^2: sqrt(1 - k) is formed as
    k_c/sqrt(1 + k), which keeps full relative accuracy as k -> 1.
    """
    s = math.sqrt(1.0 + k)
    return 1.0 / agm(s, k_c / s)
