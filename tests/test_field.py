from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quarticvp.field import GaussianRational, I, ONE, ZERO, sqrt_if_exists

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_products():
    assert (ONE + I) * (ONE - I) == GaussianRational(2)
    assert I * I == GaussianRational(-1)
    assert GaussianRational(Fraction(3, 2)) + GaussianRational(Fraction(-3, 2)) == ZERO


def test_division_and_conjugate():
    a = GaussianRational(3, 4)
    assert a * GaussianRational(3, -4) == GaussianRational(25)
    assert (a / a).is_one()
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_immutability_and_hash():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(Fraction(2, 2), 2))
    # a real value equals its int or Fraction, so it must hash like one
    for real in (1, Fraction(1, 2), 0, -7):
        assert GaussianRational(real) == real
        assert hash(GaussianRational(real)) == hash(real)
        assert {real: "a"}.get(GaussianRational(real)) == "a"


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_inverses(a):
    assert a + (-a) == ZERO
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@given(gaussians)
def test_sqrt_of_square_squares_back(s):
    t = sqrt_if_exists(s * s)
    assert t is not None
    assert t * t == s * s


def test_sqrt_examples():
    assert sqrt_if_exists(GaussianRational(4)) == GaussianRational(2)
    assert sqrt_if_exists(GaussianRational(-1)) == I
    # 2 is not a square in Q(i): its norm 4 is a square but x^2 = 2 forces
    # an irrational real part
    assert sqrt_if_exists(GaussianRational(2)) is None
    assert sqrt_if_exists(GaussianRational(0, 2)) == GaussianRational(1, 1)
    assert sqrt_if_exists(ZERO) == ZERO


def test_sqrt_branch_is_deterministic():
    for value in (GaussianRational(9), GaussianRational(-4), GaussianRational(0, -2)):
        root = sqrt_if_exists(value)
        assert root is not None
        assert root.re > 0 or (not root.re and root.im >= 0)


def test_norm_not_square_means_no_root():
    # brute-force justification for the "2 has no root" example: a root
    # x + iy needs x^2 - y^2 = 2 and 2xy = 0, so y = 0 and x^2 = 2, which
    # no reduced fraction satisfies
    for num in range(-20, 21):
        for den in range(1, 21):
            assert Fraction(num, den) ** 2 != 2
