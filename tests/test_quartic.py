"""The quartic's coefficients, its invariants under a Taylor shift, and the checked shift."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sig4.numerics import DomainError
from sig4.quartic import (
    QuarticCoefficients,
    cubinvariant,
    quadrinvariant,
    recentered,
    solve_quartic_ivp,
    taylor_shift,
)
from sig4.verify import y4_equation_quartic

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


@settings(deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, coefficient, coefficient)
@example(0.0, 0.0, 7.0 * _SPACING, 0.0, 0.0, 1.0)
def test_from_monomial_has_the_monomial_values(c4, c3, c2, c1, c0, w):
    assume(not c4 == c3 == c2 == c1 == 0.0)
    q = QuarticCoefficients.from_monomial(c4, c3, c2, c1, c0)
    plain = (((c4 * w + c3) * w + c2) * w + c1) * w + c0
    size = (((abs(c4) * abs(w) + abs(c3)) * abs(w) + abs(c2)) * abs(w) + abs(c1)) * abs(w) + abs(c0)
    # below 2^-1022 rounding is absolute: c/4 and c/6 and each Horner product
    # round by up to half a spacing, carried by at most (1 + |w|)^4
    tol = 16.0 * _EPS * size + 8.0 * _SPACING * (1.0 + abs(w)) ** 4
    assert abs(q.value(w) - plain) <= tol


def test_taylor_shift_is_the_checked_recentering():
    # (w - 1)(w - 2)(w + 1)(w + 3) = w^4 + w^3 - 7w^2 - w + 6
    q = QuarticCoefficients.from_monomial(1.0, 1.0, -7.0, -1.0, 6.0)
    for root in (1.0, 2.0, -1.0, -3.0):
        shifted = taylor_shift(q, root)
        assert shifted == recentered(q, root) and shifted.a4 == 0.0
    # 4 a3 = f'(2) = (2 - 1)(2 + 1)(2 + 3) and 12 a2 = f''(2) = 2 (3 + 5 + 15)
    shifted = taylor_shift(q, 2.0)
    assert 4.0 * shifted.a3 == pytest.approx(15.0, rel=1e-15)
    assert 12.0 * shifted.a2 == pytest.approx(46.0, rel=1e-15)


def test_taylor_shift_rejects_a_non_root_and_a_double_root():
    q = QuarticCoefficients.from_monomial(1.0, 1.0, -7.0, -1.0, 6.0)
    with pytest.raises(DomainError, match="is not a root"):
        taylor_shift(q, 0.5)
    # (w - 1)^2 (w + 2)(w - 3): f(1) = f'(1) = 0
    double = QuarticCoefficients.from_monomial(1.0, -3.0, -3.0, 11.0, -6.0)
    with pytest.raises(DomainError, match="root not simple"):
        taylor_shift(double, 1.0)


@pytest.mark.parametrize("w0", [math.nan, math.inf, -math.inf])
def test_taylor_shift_rejects_a_non_finite_start(w0):
    # a NaN passes both root checks and an infinite start reads as a double
    # root, so the start is checked first, and the solver inherits the check
    q = y4_equation_quartic(0.6)
    with pytest.raises(DomainError, match=f"w0={w0} is not finite"):
        taylor_shift(q, w0)
    with pytest.raises(DomainError, match=f"w0={w0} is not finite"):
        solve_quartic_ivp(q, w0)
