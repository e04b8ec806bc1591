"""The quartic's invariants: unchanged by a Taylor shift of its argument."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sig4.quartic import QuarticCoefficients, cubinvariant, quadrinvariant, recentered

_EPS = 2.0 ** -52
_SPACING = 2.0 ** -1074   # of the doubles below 2^-1022, where rounding is absolute
coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _bound(x):
    return x if isinstance(x, _Bound) else _Bound(abs(x))


class _Bound:
    """Running error bound of one computed value, for the arithmetic of the invariants.

    ``size`` majorizes its magnitude: sums and differences add sizes.
    ``spacings`` bounds, to first order and in units of _SPACING, the
    absolute rounding it gathered below 2^-1022: a product rounds there by
    up to half a spacing and carries each factor's spacings times the other
    factor's size, a sum of doubles there is exact, and libm's pow is within
    one spacing.
    """

    def __init__(self, size: float, spacings: float = 0.0):
        self.size, self.spacings = size, spacings

    def __add__(self, other):
        other = _bound(other)
        return _Bound(self.size + other.size, self.spacings + other.spacings)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        other = _bound(other)
        return _Bound(self.size * other.size,
                      self.spacings * other.size + other.spacings * self.size + 0.5)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _Bound(self.size ** k, k * self.size ** (k - 1) * self.spacings + 1.0)


@settings(deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, coefficient, coefficient)
@example(0.0, 1.0589050260530414e-160, 1.0589050260530414e-160, 0.0, 0.0, 2.5)
@example(0.0, 8.693748611557872e-161, 8.693748611557872e-161, 0.0, 0.0, -3.0)
def test_recentered_keeps_both_invariants(a0, a1, a2, a3, a4, c):
    assume(not a0 == a1 == a2 == a3 == 0.0)
    q = QuarticCoefficients(a0, a1, a2, a3, a4)
    shifted = recentered(q, c)
    # rounding in the shifted coefficients is bounded by the same shift of
    # the coefficient magnitudes, where no term cancels; the invariants of
    # that majorant bound the relative rounding in the invariants.  Run
    # through the same code, _Bound adds the absolute rounding below 2^-1022,
    # where the relative bound underflows to 0
    bound = QuarticCoefficients(*(_Bound(abs(a)) for a in (a0, a1, a2, a3, a4)))
    moved = recentered(bound, _Bound(abs(c)))
    for invariant in (quadrinvariant, cubinvariant):
        at_q, at_shift = invariant(bound), invariant(moved)
        tol = 16.0 * _EPS * at_shift.size + _SPACING * (at_q.spacings + at_shift.spacings)
        assert abs(invariant(shifted) - invariant(q)) <= tol, invariant.__name__
