"""The quartic's invariants: unchanged by a Taylor shift of its argument."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sig4.quartic import QuarticCoefficients, cubinvariant, quadrinvariant, recentered

_EPS = 2.0 ** -52
coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _g2_magnitude(q: QuarticCoefficients) -> float:
    """Sum of the magnitudes of the terms of g2."""
    return abs(q.a0 * q.a4) + 4.0 * abs(q.a1 * q.a3) + 3.0 * q.a2 * q.a2


def _g3_magnitude(q: QuarticCoefficients) -> float:
    """Sum of the magnitudes of the terms of g3."""
    return (abs(q.a0 * q.a2 * q.a4) + 2.0 * abs(q.a1 * q.a2 * q.a3) + abs(q.a2) ** 3
            + abs(q.a0) * q.a3 ** 2 + q.a1 ** 2 * abs(q.a4))


@settings(deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, coefficient, coefficient)
def test_recentered_keeps_both_invariants(a0, a1, a2, a3, a4, c):
    assume(not a0 == a1 == a2 == a3 == 0.0)
    q = QuarticCoefficients(a0, a1, a2, a3, a4)
    shifted = recentered(q, c)
    # rounding in the shifted coefficients is bounded by the same shift of
    # the coefficient magnitudes, where no term cancels; the invariants of
    # that majorant bound the rounding in the invariants
    bound = recentered(QuarticCoefficients(*(abs(a) for a in (a0, a1, a2, a3, a4))), abs(c))
    tol = 16.0 * _EPS
    assert abs(quadrinvariant(shifted) - quadrinvariant(q)) <= tol * _g2_magnitude(bound)
    assert abs(cubinvariant(shifted) - cubinvariant(q)) <= tol * _g3_magnitude(bound)
