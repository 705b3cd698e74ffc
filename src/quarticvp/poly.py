"""Sparse polynomials in x0..x3 over the Gaussian rationals.

A polynomial is a mapping from exponent 4-tuples to nonzero coefficients;
no zero coefficient is ever stored, so structural equality is semantic
equality.  The ring is deliberately fixed at four variables: everything in
this package lives in P^3.

The module also carries the handful of primitives the geometry needs:
weighted order, chart substitutions, the shear x_i -> x_i + c*x0,
exceptional-power extraction, order along a coordinate line, and exact
univariate gcd over Q(i).
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .errors import GeometryError, PolyParseError
from .field import GaussianRational, I, ONE, ZERO, digits, from_digits, rational, term_coeff

NVARS = 4
VAR_NAMES = ("x0", "x1", "x2", "x3")


class Polynomial:
    """Immutable sparse polynomial over GaussianRational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = GaussianRational.of(coeff)
                if coeff.is_zero():
                    continue
                if len(mono) != NVARS or any(e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono!r}")
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(0, 0, 0, 0): GaussianRational.of(c)})

    @staticmethod
    def variable(i: int) -> "Polynomial":
        mono = tuple(1 if j == i else 0 for j in range(NVARS))
        return Polynomial({mono: ONE})

    @staticmethod
    def monomial(exponents, coeff=ONE) -> "Polynomial":
        return Polynomial({tuple(exponents): GaussianRational.of(coeff)})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def coefficient(self, exponents) -> GaussianRational:
        return self.terms.get(tuple(exponents), ZERO)

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def variables(self):
        """Indices of variables actually present."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, ZERO) + c
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return _raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        terms = {}
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                s = terms.get(m, ZERO) + c1 * c2
                if s.is_zero():
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return _raw(terms)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = GaussianRational.of(c)
        if c.is_zero():
            return Polynomial.zero()
        return _raw({m: k * c for m, k in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus-flavoured helpers ----------------------------------------

    def homogeneous_component(self, d: int) -> "Polynomial":
        return _raw({m: c for m, c in self.terms.items() if sum(m) == d})

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<Polynomial {format_poly(self)}>"


def _raw(terms: dict) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "terms", terms)
    return p


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


# -- substitution ------------------------------------------------------------


def substitute(f: Polynomial, images: dict) -> Polynomial:
    """Ring-homomorphism image of ``f`` with ``images[i]`` replacing x_i.

    Variables absent from ``images`` map to themselves.  When every image
    is a monomial the exponent arithmetic is done directly, which keeps the
    blowup chart maps cheap, and each power of an image coefficient is taken once.
    """
    images = {i: _as_poly(g) for i, g in images.items()}
    for i in range(NVARS):
        images.setdefault(i, Polynomial.variable(i))

    if all(len(g.terms) == 1 for g in images.values()):
        parts = {}
        for i, g in images.items():
            ((mono, coeff),) = g.terms.items()
            parts[i] = (mono, None if coeff.is_one() else {1: coeff})
        terms = {}
        for m, c in f.terms.items():
            out = [0, 0, 0, 0]
            coeff = c
            for i, e in enumerate(m):
                if not e:
                    continue
                mono, powers = parts[i]
                for j in range(NVARS):
                    out[j] += mono[j] * e
                if powers is not None:
                    if e not in powers:
                        powers[e] = powers[1] ** e
                    coeff = coeff * powers[e]
            mono = tuple(out)
            # a chart map is injective on monomials: most images need no sum
            s = terms.get(mono)
            if s is None:
                terms[mono] = coeff
                continue
            s = s + coeff
            if s.is_zero():
                del terms[mono]
            else:
                terms[mono] = s
        return _raw(terms)

    result = Polynomial.zero()
    power_cache = {i: {0: Polynomial.constant(1)} for i in images}
    for m, c in f.terms.items():
        part = Polynomial.constant(c)
        for i, e in enumerate(m):
            if not e:
                continue
            cache = power_cache[i]
            if e not in cache:
                cache[e] = images[i] ** e
            part = part * cache[e]
        result = result + part
    return result


def permute_variables(f: Polynomial, perm) -> Polynomial:
    """Relabel variables: variable i becomes variable perm[i]."""
    terms = {}
    for m, c in f.terms.items():
        out = [0, 0, 0, 0]
        for i, e in enumerate(m):
            out[perm[i]] = e
        terms[tuple(out)] = c
    return _raw(terms)


def _accumulate(terms: dict, mono, c) -> None:
    """terms[mono] += c, storing no zero."""
    s = terms.get(mono)
    if s is None:
        terms[mono] = c
        return
    s = s + c
    if s.is_zero():
        del terms[mono]
    else:
        terms[mono] = s


def shear(f: Polynomial, var: int, c) -> Polynomial:
    """Substitute x_var -> x_var + c*x0.

    Each term expands binomially, so the cost is O(terms x degree) Q(i)
    products; ``linear_change`` with the same matrix would multiply out
    powers of linear forms instead.
    """
    c = GaussianRational.of(c)
    if c.is_zero():
        return f
    top = max((m[var] for m in f.terms), default=0)
    # steps[e][j] = binomial(e, j) * c^j
    powers = [ONE]
    for _ in range(top):
        powers.append(powers[-1] * c)
    steps = [[powers[j] * comb(e, j) for j in range(e + 1)] for e in range(top + 1)]
    terms = {}
    for m, coeff in f.terms.items():
        e = m[var]
        for j, step in enumerate(steps[e]):
            mono = list(m)
            mono[var] -= j
            mono[0] += j
            _accumulate(terms, tuple(mono), coeff * step if j else coeff)
    return _raw(terms)


def linear_change(f: Polynomial, matrix) -> Polynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j."""
    images = {}
    for i in range(NVARS):
        row = Polynomial.zero()
        for j in range(NVARS):
            c = GaussianRational.of(matrix[i][j])
            if not c.is_zero():
                row = row + Polynomial.variable(j).scale(c)
        images[i] = row
    return substitute(f, images)


# -- geometric primitives ------------------------------------------------------


def dehomogenize(f: Polynomial, var: int) -> Polynomial:
    """Set x_var = 1.  Requires ``f`` homogeneous."""
    if not f.is_homogeneous():
        raise ValueError("dehomogenize requires a homogeneous polynomial")
    terms = {}
    for m, c in f.terms.items():
        m2 = list(m)
        m2[var] = 0
        mono = tuple(m2)
        s = terms.get(mono, ZERO) + c
        if s.is_zero():
            terms.pop(mono, None)
        else:
            terms[mono] = s
    return _raw(terms)


def weighted_order(f: Polynomial, weights) -> int:
    """min over monomials of e1*w1 + e2*w2 + e3*w3.

    ``weights`` are assigned to (x1, x2, x3); the input must already be
    dehomogenized, i.e. free of x0.
    """
    if f.is_zero():
        raise ValueError("weighted order of the zero polynomial")
    w1, w2, w3 = weights
    best = None
    for m in f.terms:
        if m[0]:
            raise ValueError("weighted_order expects an x0-free polynomial")
        w = m[1] * w1 + m[2] * w2 + m[3] * w3
        if best is None or w < best:
            best = w
    return best


def divide_var_power(f: Polynomial, var: int, k: int) -> Polynomial:
    """Exact division by x_var^k."""
    if k == 0:
        return f
    if f.is_zero():
        raise ValueError("division of the zero polynomial")
    terms = {}
    for m, c in f.terms.items():
        if m[var] < k:
            raise ValueError(f"x{var}^{k} does not divide {f}")
        m2 = list(m)
        m2[var] -= k
        terms[tuple(m2)] = c
    return _raw(terms)


def order_along(f: Polynomial, vars_) -> int:
    """min over monomials of the combined exponent of ``vars_``.

    Order >= 1 says the coordinate subvariety lies on {f = 0}; for the
    line {x1 = x3 = 0} use vars_ = (1, 3).  One variable gives the largest
    k with x_var^k dividing f, all four the order of vanishing at the origin.
    """
    if f.is_zero():
        raise ValueError("order of the zero polynomial")
    columns = (map(itemgetter(i), f.terms) for i in vars_)
    return min(map(sum, zip(*columns)))


# -- univariate layer ----------------------------------------------------------


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def univariate_derivative(coeffs: list) -> list:
    return _trim([coeffs[e] * e for e in range(1, len(coeffs))])


def _uni_divmod(num: list, den: list):
    num = list(num)
    q = [ZERO] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den) and num:
        shift = len(num) - len(den)
        factor = num[-1] / lead
        q[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - factor * c
        num = _trim(num)
    return _trim(q), num


def univariate_gcd(p: list, q: list) -> list:
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    a, b = _trim(list(p)), _trim(list(q))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def unique_multiple_root(p: list):
    """The unique multiple root of ``p``, exact in Q(i), or None.

    Repeated gcd with the derivative shrinks to a linear factor whenever
    the multiple root is unique, so no radicals are ever needed.
    """
    g = univariate_gcd(p, univariate_derivative(p))
    while len(g) > 2:
        g = univariate_gcd(g, univariate_derivative(g))
    if len(g) != 2:
        return None
    return -g[0] / g[1]


def squarefree_excess(p: list) -> int:
    """deg gcd(p, p'): the total excess multiplicity of the roots of p."""
    g = univariate_gcd(p, univariate_derivative(p))
    return len(g) - 1 if g else 0


# -- parsing --------------------------------------------------------------------

# Parentheses nest at most this deep; the formatter never nests at all.
MAX_NESTING = 64
# A product of parenthesized sums past the quartic degree is refused unmultiplied.
MAX_PRODUCT_DEGREE = 4


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() also admits '²' and '٣', which int() misreads
    return "0" <= ch <= "9"


class _Term:
    """A product of factors: one coefficient times x^mono, times the
    parenthesized sums of several terms, kept apart in ``sums``."""

    __slots__ = ("negative", "coeff", "mono", "sums")

    def __init__(self, negative: bool):
        self.negative = negative
        self.coeff = ONE
        self.mono = [0, 0, 0, 0]
        self.sums = []

    def times(self, c: GaussianRational) -> None:
        # a term with no coefficient factor yet holds ONE itself: no product
        self.coeff = c if self.coeff is ONE else self.coeff * c

    def times_sum(self, p: Polynomial) -> None:
        if len(p.terms) > 1:
            self.sums.append(p)
        elif not p.terms:
            self.coeff = ZERO
        else:
            ((mono, c),) = p.terms.items()
            self.times(c)
            self.mono = [a + b for a, b in zip(self.mono, mono)]

    def add_to(self, terms: dict) -> None:
        if self.coeff.is_zero():
            return
        if self.sums:
            degree = sum(self.mono) + sum(p.total_degree() for p in self.sums)
            if degree > MAX_PRODUCT_DEGREE:
                raise GeometryError(
                    f"a product of parenthesized sums of degree above {MAX_PRODUCT_DEGREE} is not read"
                )
        product = _raw({tuple(self.mono): -self.coeff if self.negative else self.coeff})
        # Polynomial arithmetic only here, for sums of several terms
        for p in self.sums:
            product = product * p
        for mono, c in product.terms.items():
            _accumulate(terms, mono, c)


class _Parser:
    """One left-to-right pass over the text.

    A term is read factor by factor into a ``_Term``: a coefficient factor
    multiplies its coefficient, a variable adds to its exponents.  An open
    parenthesis pushes the enclosing sum and term on a stack, so nesting
    costs no recursion; its closing one pops them and multiplies the inner
    sum into the term.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return from_digits(self.text[start : self.pos])

    def parse_rat(self) -> tuple[int, int]:
        num, den = self.parse_nat(), 1
        if self.eat("/"):
            at = self.pos
            den = self.parse_nat()
            if den == 0:
                self.pos = at
                self.error("zero denominator")
        return num, den

    def parse_factor(self, term: _Term) -> None:
        """Multiply one coefficient or variable factor into ``term``."""
        ch = self.peek()
        if _is_digit(ch):
            num, den = self.parse_rat()
            # "4i" is accepted as tight shorthand for 4*i
            tight_i = self.text.startswith("i", self.pos)
            self.pos += tight_i
            term.times(rational(num, den, tight_i))
            return
        if ch == "i":
            save = self.pos
            self.pos += 1
            nxt = self.text[self.pos] if self.pos < len(self.text) else ""
            if nxt.isalnum() or nxt == "_":
                self.pos = save
                self.error("unknown name")
            term.times(I)
            return
        if ch == "x":
            start = self.pos
            name = self.text[start : start + 2]
            self.pos += 2
            nxt = self.text[self.pos] if self.pos < len(self.text) else ""
            if name not in VAR_NAMES or _is_digit(nxt):
                self.pos = start
                self.error("unknown variable name")
            term.mono[VAR_NAMES.index(name)] += self.parse_nat() if self.eat("^") else 1
            return
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def parse_expr(self) -> Polynomial:
        stack = []
        terms, term = {}, _Term(self.eat("-"))
        while True:
            if self.peek() == "(":
                if len(stack) == MAX_NESTING:
                    self.error(f"parentheses nested deeper than {MAX_NESTING}")
                self.pos += 1
                stack.append((terms, term))
                terms, term = {}, _Term(self.eat("-"))
                continue
            self.parse_factor(term)
            while not self.eat("*"):
                term.add_to(terms)
                op = self.peek()
                if op == "+" or op == "-":
                    self.pos += 1
                    term = _Term(op == "-")
                    break
                if not stack:
                    return _raw(terms)
                if not self.eat(")"):
                    self.error("expected ')'")
                inner = _raw(terms)
                terms, term = stack.pop()
                term.times_sum(inner)


def parse(text: str) -> Polynomial:
    """Parse the polynomial grammar; see the package README for the EBNF
    and for the ``MAX_PRODUCT_DEGREE`` bound on products of sums."""
    parser = _Parser(text)
    result = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return result


# -- formatting -------------------------------------------------------------------


def _grlex_key(mono):
    return (-sum(mono), tuple(-e for e in mono))


def _format_monomial(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{VAR_NAMES[i]}^{digits(e)}")
    return "*".join(parts)


def format_poly(f: Polynomial) -> str:
    """Canonical text: graded-lex term order, explicit '*', parenthesized
    mixed coefficients, each term signed by its coefficient's leading
    nonzero part, and no real 1 before a monomial.  parse(format_poly(f)) == f."""
    if f.is_zero():
        return "0"
    out = ""
    for mono in sorted(f.terms, key=_grlex_key):
        negative, body = term_coeff(f.terms[mono])
        mono_text = _format_monomial(mono)
        if mono_text:
            body = mono_text if body == "1" else f"{body}*{mono_text}"
        if out:
            out += " - " if negative else " + "
        elif negative:
            out = "-"
        out += body
    return out


def parse_coeff(text: str) -> GaussianRational:
    """Parse a bare coefficient in the grammar's coeff forms."""
    p = parse(text)
    if not p.is_constant():
        raise PolyParseError("expected a constant", 0)
    return p.coefficient((0, 0, 0, 0))
