"""Exact arithmetic over the Gaussian rationals Q(i).

Every coefficient in the package is a :class:`GaussianRational`: a pair of
arbitrary-precision rationals (re, im) representing ``re + im*i``.  Values
are immutable and always stored reduced (``fractions.Fraction`` keeps the
components canonical), so equality is componentwise and hashable.  No
other module builds or reads the parts (see "Numbers" in the README).
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational.of(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- text -----------------------------------------------------------

    def __str__(self):
        return format_coeff(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# str(int) and int(str) stop at 4300 digits; decimal converts exactly at
# any length
def digits(n: int) -> str:
    """Decimal text of an integer of any length."""
    return str(Decimal(n))


def from_digits(text: str) -> int:
    """The integer a run of ASCII decimal digits spells, at any length."""
    return int(Decimal(text))


def _format_rat(q: Fraction) -> str:
    num = digits(q.numerator)
    return num if q.denominator == 1 else f"{num}/{digits(q.denominator)}"


def format_coeff(a: GaussianRational) -> str:
    """Render in the grammar forms ``int``, ``int/nat``, ``a*i``, ``a + b*i``.

    The sign of the imaginary part joins a mixed value's parts.  Mixed
    values are not parenthesized here; ``term_coeff`` adds them.
    """
    if not a.im:
        return _format_rat(a.re)
    im = "i" if abs(a.im) == 1 else f"{_format_rat(abs(a.im))}*i"
    sign = "-" if a.im < 0 else ""
    if not a.re:
        return sign + im
    return f"{_format_rat(a.re)} {sign or '+'} {im}"


def rational(num: int, den: int, imaginary: bool = False) -> GaussianRational:
    """The literal num/den, times i when ``imaginary``."""
    q = Fraction(num, den)
    return GaussianRational(0, q) if imaginary else GaussianRational(q)


def term_coeff(a: GaussianRational) -> tuple:
    """(negative, text) of a polynomial term's coefficient: the sign of its
    leading nonzero part, and the rest, parenthesized when it has both parts."""
    negative = (a.re or a.im) < 0
    text = format_coeff(-a if negative else a)
    return negative, f"({text})" if a.re and a.im else text


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if not q:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def sqrt_if_exists(a: GaussianRational):
    """A square root of ``a`` in Q(i), or None when none exists.

    With s = x + y*i, s^2 = a forces x^2 = (re + |a|)/2 where |a| is the
    rational square root of the field norm; both square roots must land in
    Q.  The returned branch is deterministic: re > 0, or re = 0 and im >= 0.
    """
    a = GaussianRational.of(a)
    if a.is_zero():
        return ZERO
    m = _rational_sqrt(a.norm())
    if m is None:
        return None
    x = _rational_sqrt((a.re + m) / 2)
    if x is None:
        return None
    if x:
        s = GaussianRational(x, a.im / (2 * x))
    else:
        y = _rational_sqrt(-a.re)
        if y is None:
            return None
        s = GaussianRational(0, y)
    if s * s != a:
        return None
    if s.re < 0 or (not s.re and s.im < 0):
        s = -s
    return s


def coeff_sort_key(a: GaussianRational):
    """Total order on Q(i) used only to make tie-breaking deterministic."""
    return (a.re, a.im)
