import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quarticvp import field
from quarticvp.field import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    digits,
    from_digits,
    rational,
    sqrt_if_exists,
    term_coeff,
)

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


# the number format's protocol, checked against Fraction pairs


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.booleans())
def test_rational_literal_matches_a_fraction_oracle(num, den, imaginary):
    q = Fraction(num, den)
    a = rational(num, den, imaginary)
    assert (a.re, a.im) == ((0, q) if imaginary else (q, 0))


def _oracle_term_coeff(re: Fraction, im: Fraction):
    negative = (re or im) < 0
    if negative:
        re, im = -re, -im
    if not im:
        return negative, str(re)
    im_text = {1: "i", -1: "-i"}.get(im, f"{im}*i")
    if not re:
        return negative, im_text
    sign = "-" if im < 0 else "+"
    return negative, f"({re} {sign} {im_text.lstrip('-')})"


@given(rationals, rationals)
def test_term_coeff_matches_a_fraction_oracle(re, im):
    assert term_coeff(GaussianRational(re, im)) == _oracle_term_coeff(re, im)


def _digit_runs():
    """Digit runs from 1 digit up to several leaf lengths of the split
    conversion, with the edges a split can get wrong: a run one digit either
    side of a leaf, all nines, long runs of zeros in the low half, and
    integers one either side of a power of two near the leaf's bit length."""
    rng = random.Random(24)
    leaf = field._LEAF
    for size in (1, 2, 9, leaf - 1, leaf, leaf + 1, 2 * leaf, 2 * leaf + 1, 5 * leaf + 3, 9 * leaf):
        yield str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(size - 1))
        yield "9" * size
        yield "1" + "0" * (size - 1)
    yield "7" + "0" * (3 * leaf) + "5" * leaf
    yield "0" * (2 * leaf) + "42"
    for bits in (field._LEAF_BITS - 1, field._LEAF_BITS, field._LEAF_BITS + 1, 4 * field._LEAF_BITS + 7):
        for n in (2**bits - 1, 2**bits, 2**bits + 1):
            yield str(Decimal(n))


def test_split_digit_conversion_matches_one_shot_decimal():
    # the oracle is one decimal conversion of the whole run, quadratic but exact
    for text in _digit_runs():
        n = int(Decimal(text))
        assert from_digits(text) == n, len(text)
        assert digits(n) == str(Decimal(n)), len(text)
        assert from_digits(digits(n)) == n
        assert digits(-n) == "-" + digits(n)


def test_split_digit_conversion_past_decimals_default_exponent_limit():
    # decimal's default context stops at 10^6 digits (Emax 999999)
    text = "1" + "0" * 1000001
    assert digits(10**1000001) == text
    assert from_digits(text) == 10**1000001
