"""2F1 series against the explicit Pochhammer oracle; closed forms against series and mpmath."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sig4.hypergeometric import complete_f, hyp2f1
from sig4.numerics import DomainError, PoleError


def f_half_closed(z: float) -> float:
    """cos(z/2)/cos(z), the closed form of 2F1(1/4, 3/4; 1/2; sin^2 z)."""
    cz = math.cos(z)
    if abs(cz) < 1e-14:
        raise PoleError(f"cos(z) vanishes at z={z}")
    return math.cos(0.5 * z) / cz


def _pochhammer_oracle(a, b, c, x, terms):
    """Direct Pochhammer-product series, reverse-summed: independent route."""
    out = []
    t = 1.0
    for n in range(terms):
        out.append(t)
        t *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * x
    return math.fsum(reversed(out))


# frozen from the oracle (40 and 200 terms agree at these arguments)
F_ONE_036 = 1.0853573342965475
F_ONE_064 = 1.199853960107822


def test_oracle_freeze():
    assert abs(_pochhammer_oracle(0.25, 0.75, 1.0, 0.36, 40) - F_ONE_036) < 1e-15
    assert abs(_pochhammer_oracle(0.25, 0.75, 1.0, 0.64, 200) - F_ONE_064) < 1e-15


def test_empty_product():
    assert hyp2f1(0.25, 0.75, 0.5, 0.0) == 1.0
    assert complete_f(0.0, 1.0) == 1.0


def test_series_values():
    assert hyp2f1(0.25, 0.75, 1.0, 0.36) == pytest.approx(F_ONE_036, abs=1e-14)
    assert hyp2f1(0.25, 0.75, 1.0, 0.64) == pytest.approx(F_ONE_064, abs=1e-14)
    assert complete_f(0.6, 0.8) == pytest.approx(F_ONE_036, abs=1e-14)


def test_omega_from_complete_value():
    omega = 0.5 * math.pi * complete_f(0.6, 0.8)
    assert abs(omega - 1.7048753139729174) < 1e-13


def test_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.25, 0.75, 1.0, -0.1)
    with pytest.raises(DomainError):
        hyp2f1(0.25, 0.75, 1.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(0.25, 0.75, -2.0, 0.5)


def test_closed_form_exact_points():
    assert f_half_closed(0.0) == 1.0
    assert f_half_closed(math.pi / 3.0) == pytest.approx(1.732050807568877, abs=1e-12)


def test_closed_form_pole():
    with pytest.raises(PoleError):
        f_half_closed(math.pi / 2.0)


def test_two_routes_agree_at_half():
    z = 0.5
    series = hyp2f1(0.25, 0.75, 0.5, math.sin(z) ** 2)
    assert abs(series - f_half_closed(z)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(z=st.floats(0.0, 1.4))
def test_closed_form_identity_on_interval(z):
    series = hyp2f1(0.25, 0.75, 0.5, math.sin(z) ** 2)
    assert abs(series - f_half_closed(z)) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.0, 0.9), dx=st.floats(1e-6, 0.05))
def test_strictly_increasing(x, dx):
    if x + dx >= 1.0:
        return
    for c in (0.5, 1.0):
        assert hyp2f1(0.25, 0.75, c, x + dx) > hyp2f1(0.25, 0.75, c, x)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.0, 0.9))
def test_truncation_stability(x):
    # doubling the term budget moves the oracle by < 1e-14 relative,
    # and the library value matches the long oracle at that level
    short = _pochhammer_oracle(0.25, 0.75, 1.0, x, 600)
    long = _pochhammer_oracle(0.25, 0.75, 1.0, x, 1200)
    assert abs(long - short) <= 1e-14 * abs(long)
    assert abs(hyp2f1(0.25, 0.75, 1.0, x) - long) <= 1e-13 * abs(long)


@pytest.mark.parametrize("k", [1e-4, 1e-3, 0.5, 0.99, 0.9999, 1.0 - 1e-6])
def test_complete_f_against_mpmath(k):
    # the AGM closed form takes the modulus and its complement, in either order
    k_c = math.sqrt((1.0 - k) * (1.0 + k))
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        ref = mpmath.hyp2f1(0.25, 0.75, 1, m)
        ref_c = mpmath.hyp2f1(0.25, 0.75, 1, 1 - m)
        assert abs(complete_f(k, k_c) / ref - 1) <= 1e-15
        assert abs(complete_f(k_c, k) / ref_c - 1) <= 1e-15
