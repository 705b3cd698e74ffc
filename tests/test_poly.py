import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quarticvp.errors import GeometryError, PolyParseError
from quarticvp.field import GaussianRational, I, digits
from quarticvp.poly import (
    MAX_NESTING,
    MAX_PRODUCT_DEGREE,
    Polynomial,
    dehomogenize,
    divide_var_power,
    format_poly,
    linear_change,
    order_along,
    parse,
    shear,
    substitute,
    unique_multiple_root,
    univariate_derivative,
    univariate_gcd,
    weighted_order,
)

from conftest import random_poly

X0, X1, X2, X3 = (Polynomial.variable(i) for i in range(4))


def test_parse_literal():
    f = parse("x2*x3 + x1^3")
    assert f.coefficient((0, 0, 1, 1)).is_one()
    assert f.coefficient((0, 3, 0, 0)).is_one()
    assert len(f.terms) == 2


def test_parse_complex_coefficients():
    f = parse("16*x1^4 - 4*i*x1^3*x2")
    assert f.coefficient((0, 4, 0, 0)) == GaussianRational(16)
    assert f.coefficient((0, 3, 1, 0)) == GaussianRational(0, -4)


def test_parse_zero_exponent_and_whitespace():
    assert parse("x1^0") == Polynomial.constant(1)
    assert parse("  x1 * x2\t+ 3 ") == X1 * X2 + Polynomial.constant(3)


@pytest.mark.parametrize(
    "text,offset_range",
    [
        ("x4 + 1", (0, 2)),
        ("x1 + ", (4, 6)),
        ("1/0", (1, 3)),
        ("x1 ^ y", (4, 6)),
        ("(x1 + x2", (7, 9)),
    ],
)
def test_parse_errors_carry_offsets(text, offset_range):
    with pytest.raises(PolyParseError) as err:
        parse(text)
    assert offset_range[0] <= err.value.offset <= offset_range[1]


def test_deep_nesting_is_refused_at_the_offending_parenthesis():
    nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse(nested) == X1
    with pytest.raises(PolyParseError) as err:
        parse("(" * 330 + "x1" + ")" * 330)
    assert err.value.offset == MAX_NESTING
    with pytest.raises(PolyParseError) as err:
        parse("x2 + " + "(" * (MAX_NESTING + 1) + "x1")
    assert err.value.offset == 5 + MAX_NESTING


def test_a_product_of_sums_past_degree_4_is_refused_before_multiplying():
    quartic = "(x0 + x1)*(x0 + x1)*x2*x3"
    assert parse(quartic) == (X0 + X1) * (X0 + X1) * X2 * X3
    for text in ("(x0 + x1)*(x0 + x1)*(x0 + x1)*x2*x3", "x1*((x0 + x1)*(x0 + x1)*x2*x3)"):
        with pytest.raises(GeometryError):
            parse(text)
    # refused even where the quintic part would cancel against another term
    with pytest.raises(GeometryError):
        parse("x1*(x1^3 + x1^4) - x1^5")
    # plain monomials are never multiplied out, so they may pass the bound
    assert parse("x0^5 - x0^5 + x1^2") == X1 * X1
    # a product whose value is zero is dropped before its degree is read
    assert parse("0*(x0 + x1)*(x0 + x1)*(x0 + x1)*(x0 + x1)*x2 + x3") == X3


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x0^2*x2*x3 + x1^\u00b2", 16),  # superscript two
        ("\u0663*x1^4", 0),  # Arabic-Indic three
        ("x1^4 + 1/\u0663", 9),
        ("x\u0661^2", 0),  # Arabic-Indic one as a variable index
    ],
)
def test_non_ascii_digits_are_refused(text, offset):
    with pytest.raises(PolyParseError) as err:
        parse(text)
    assert err.value.offset == offset


def _render_expr(tree) -> str:
    negate, terms = tree
    text = "-" if negate else ""
    for k, (sign, factors) in enumerate(terms):
        if k:
            text += " - " if sign else " + "
        text += "*".join(_render_factor(f) for f in factors)
    return text


def _render_rat(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_factor(factor) -> str:
    kind, value = factor
    if kind == "rat":
        return _render_rat(value)
    if kind == "tight_i":
        return f"{_render_rat(value)}i"
    if kind == "i":
        return "i"
    if kind == "var":
        index, power = value
        return f"x{index}" if power is None else f"x{index}^{power}"
    return f"({_render_expr(value)})"


def _evaluate_expr(tree) -> Polynomial:
    negate, terms = tree
    total = Polynomial.zero()
    for k, (sign, factors) in enumerate(terms):
        product = Polynomial.constant(1)
        for factor in factors:
            product = product * _evaluate_factor(factor)
        total = total - product if (sign if k else negate) else total + product
    return total


def _evaluate_factor(factor) -> Polynomial:
    kind, value = factor
    if kind == "rat":
        return Polynomial.constant(value)
    if kind == "tight_i":
        return Polynomial.constant(GaussianRational(0, value))
    if kind == "i":
        return Polynomial.constant(I)
    if kind == "var":
        index, power = value
        return Polynomial.variable(index) ** (1 if power is None else power)
    return _evaluate_expr(value)


_rats = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
_atoms = st.one_of(
    st.tuples(st.just("rat"), _rats),
    st.tuples(st.just("tight_i"), _rats),
    st.tuples(st.just("i"), st.none()),
    st.tuples(
        st.just("var"),
        st.tuples(st.integers(0, 3), st.one_of(st.none(), st.integers(0, 3))),
    ),
)


def _exprs(factors):
    """expr := ['-'] term (('+'|'-') term)*; with ``cancel`` the first term
    comes back with the opposite sign, so the whole sum can cancel to zero."""
    terms = st.lists(factors, min_size=1, max_size=3)
    signed = st.lists(st.tuples(st.booleans(), terms), min_size=1, max_size=4)

    def build(negate, terms, cancel):
        if cancel:
            terms = terms + [(not negate, terms[0][1])]
        return negate, terms

    return st.builds(build, st.booleans(), signed, st.booleans())


_factors = st.recursive(
    _atoms, lambda inner: st.tuples(st.just("paren"), _exprs(inner)), max_leaves=8
)


def _refused(tree) -> bool:
    """Whether some term of the tree, at any depth, holds a parenthesized
    sum of several terms and has a nonzero value of degree above
    ``MAX_PRODUCT_DEGREE``: the product the parser will not multiply out."""
    for _, factors in tree[1]:
        sums = [value for kind, value in factors if kind == "paren"]
        if any(_refused(value) for value in sums):
            return True
        product = Polynomial.constant(1)
        for factor in factors:
            product = product * _evaluate_factor(factor)
        if (
            any(len(_evaluate_expr(value).terms) > 1 for value in sums)
            and product.terms
            and product.total_degree() > MAX_PRODUCT_DEGREE
        ):
            return True
    return False


@settings(max_examples=100, derandomize=True, deadline=None)
@given(tree=_exprs(_factors))
def test_parse_agrees_with_polynomial_arithmetic(tree):
    """An expression tree of the README grammar, rendered to text, parses
    to the value Polynomial arithmetic gives the same tree, unless it holds
    a product of sums past the degree bound, which is refused."""
    text = _render_expr(tree)
    if _refused(tree):
        with pytest.raises(GeometryError):
            parse(text)
    else:
        assert parse(text) == _evaluate_expr(tree)


def test_shear_is_the_binomial_substitution():
    rng = random.Random(29)
    x0 = Polynomial.variable(0)
    for _ in range(50):
        f = random_poly(rng)
        var = rng.randint(1, 3)
        c = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
        xv = Polynomial.variable(var)
        assert shear(f, var, c) == substitute(f, {var: xv + x0.scale(c)})


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(1000):
        f = random_poly(rng)
        assert parse(format_poly(f)) == f


def _three_branch_format_coeff(a: GaussianRational) -> str:
    """The formatter's coefficient text before its one sign rule."""

    def rat(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if not a.im:
        return rat(a.re)
    if a.im == 1:
        im = "i"
    elif a.im == -1:
        im = "-i"
    else:
        im = f"{rat(a.im)}*i"
    if not a.re:
        return im
    sep = "-" if im.startswith("-") else "+"
    return f"{rat(a.re)} {sep} {im.lstrip('-')}"


def _three_branch_format_poly(f: Polynomial) -> str:
    """The formatter before its one term rule: real, imaginary and mixed
    coefficients each had their own branch."""
    if f.is_zero():
        return "0"
    pieces = []
    for mono in sorted(f.terms, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = f.terms[mono]
        mono_text = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e
        )
        negative = False
        if c.is_real():
            if c.re < 0:
                negative, c = True, -c
            body = _three_branch_format_coeff(c)
            if mono_text and body == "1":
                body = mono_text
            elif mono_text:
                body = f"{body}*{mono_text}"
        elif not c.re:
            if c.im < 0:
                negative, c = True, -c
            body = _three_branch_format_coeff(c)
            if mono_text:
                body = f"{body}*{mono_text}"
        else:
            if c.re < 0:
                negative, c = True, -c
            body = f"({_three_branch_format_coeff(c)})"
            if mono_text:
                body = f"{body}*{mono_text}"
        pieces.append((negative, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def test_one_term_rule_writes_the_three_branch_text():
    parts = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [
        Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3), Fraction(-9, 4)
    ]
    rng = random.Random(2020)
    for _ in range(20000):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.choice((0, 0, 1, 2)) for _ in range(4))
            terms[mono] = GaussianRational(rng.choice(parts), rng.choice(parts))
        f = Polynomial(terms)
        text = format_poly(f)
        assert text == _three_branch_format_poly(f)
        assert parse(text) == f


_signed = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
_monos = st.tuples(*[st.integers(0, 2)] * 4)
# mixed and negative-imaginary coefficients drawn as often as real ones
_gaussians = st.one_of(
    st.builds(GaussianRational, _signed, _signed),
    st.builds(GaussianRational, st.just(0), _signed),
    st.builds(GaussianRational, _signed, _signed.map(lambda q: -abs(q) or -1)),
)


@given(st.dictionaries(_monos, _gaussians, min_size=1, max_size=5))
def test_format_then_parse_is_the_identity(terms):
    f = Polynomial(terms)
    assert parse(format_poly(f)) == f


@given(st.lists(st.tuples(_rats, _rats, st.booleans(), _monos), min_size=1, max_size=4))
def test_tight_i_literals_round_trip(terms):
    # "a - b/ci" reads the tight "b/ci" as (b/c)*i
    text, f = "", Polynomial.zero()
    for re, im, neg, m in terms:
        sign = "-" if neg else " + " if text else ""
        text += f"{sign}({re} - {im}i)*x0^{m[0]}*x1^{m[1]}*x2^{m[2]}*x3^{m[3]}"
        c = GaussianRational(re, -im)
        f = f + Polynomial.monomial(m, -c if neg else c)
    assert parse(text) == f
    assert parse(format_poly(f)) == f


def test_numbers_of_any_length_round_trip():
    big = 7**11834  # 10,001 digits, past the interpreter's 4300-digit limit
    assert len(digits(big)) == 10001 and digits(-big) == "-" + digits(big)
    c = GaussianRational(Fraction(-big, big + 2), Fraction(big - 1, 3 * big + 4))
    f = Polynomial({(0, 1, 2, 1): c, (1, 0, 0, 3): GaussianRational(0, big)})
    assert parse(format_poly(f)) == f
    ones, nines = (10**5000 - 1) // 9, 10**5000 - 1
    g = parse("1" * 5000 + "*x1^" + "9" * 5000)
    assert g.terms == {(0, nines, 0, 0): ones} and parse(format_poly(g)) == g


def test_substitution_examples():
    f = X2 * X3
    assert substitute(f, {2: X1 * X2, 3: X1 * X3}) == X1 * X1 * X2 * X3
    assert substitute(f, {3: X1 * X3}) == X1 * X2 * X3
    g = X2 * X2
    shifted = substitute(g, {2: X2 - Polynomial.constant(1)})
    assert shifted == X2 * X2 - X2.scale(2) + Polynomial.constant(1)


def test_monomial_substitution_merges_and_cancels():
    i_x1 = X1.scale(GaussianRational(0, 1))
    assert substitute(parse("x1^2 - x2^2 + x3"), {2: i_x1}) == parse("2*x1^2 + x3")
    assert substitute(parse("x1^2 + x2^2"), {2: i_x1}).is_zero()
    assert substitute(parse("x1*x2 + 3*x2"), {1: Polynomial.constant(2)}) == X2.scale(5)


def test_weighted_order_examples():
    assert weighted_order(parse("x2*x3 + x1*x2^3"), (1, 2, 3)) == 5
    assert weighted_order(parse("x2*x3"), (1, 1, 1)) == 2
    # the specialized witness with beta2 = c0 = delta2 = 0, rho2 = beta3 = 1
    witness = parse("x2*x3 + x1^2*x3 + x1*x2^2")
    # brute-force oracle over the monomials
    expected = min(
        m[1] * 1 + m[2] * 2 + m[3] * 3 for m in witness.terms
    )
    assert expected == 5
    assert weighted_order(witness, (1, 2, 3)) == expected


def test_weighted_order_rejects_x0_and_zero():
    with pytest.raises(ValueError):
        weighted_order(parse("x0*x1"), (1, 1, 1))
    with pytest.raises(ValueError):
        weighted_order(Polynomial.zero(), (1, 1, 1))


def test_weighted_order_is_a_valuation():
    rng = random.Random(11)
    for _ in range(1000):
        f = random_poly(rng)
        g = random_poly(rng)
        f = substitute(f, {0: Polynomial.constant(1)})
        g = substitute(g, {0: Polynomial.constant(1)})
        if f.is_zero() or g.is_zero():
            continue
        w = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        assert weighted_order(f * g, w) == weighted_order(f, w) + weighted_order(g, w)


def test_weighted_order_permutation_equivariance():
    rng = random.Random(13)
    from quarticvp.poly import permute_variables

    for _ in range(200):
        f = substitute(random_poly(rng), {0: Polynomial.constant(1)})
        if f.is_zero():
            continue
        w = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        sigma = [1, 2, 3]
        rng.shuffle(sigma)
        perm = [0] + [0, 0, 0]
        for i, s in enumerate(sigma):
            perm[i + 1] = s
        permuted = permute_variables(f, tuple(perm))
        w_permuted = [0, 0, 0]
        for i, s in enumerate(sigma):
            w_permuted[s - 1] = w[i]
        assert weighted_order(f, w) == weighted_order(permuted, tuple(w_permuted))


def test_dehomogenize():
    assert dehomogenize(parse("x0^2*x2*x3 + x0*x1^3 + x3^4"), 0) == parse(
        "x2*x3 + x1^3 + x3^4"
    )
    assert dehomogenize(parse("x0^4"), 0) == Polynomial.constant(1)
    with pytest.raises(ValueError):
        dehomogenize(parse("x0 + x1^2"), 0)


def test_content_and_exact_division():
    f = parse("x1^2*x2*x3 + x1^3*x2")
    assert order_along(f, (1,)) == 2
    assert divide_var_power(parse("x1^2*x2*x3"), 1, 2) == X2 * X3
    with pytest.raises(ValueError):
        divide_var_power(f, 1, 3)
    total = substitute(parse("x2*x3 + x1^3 + x3^4"), {2: X1 * X2, 3: X1 * X3})
    assert order_along(total, (1,)) == 2
    stripped = divide_var_power(total, 1, 2)
    assert order_along(stripped, (1,)) == 0


def test_order_along():
    assert order_along(parse("x2*x3 + x1*x2^2"), {1, 3}) == 1
    assert order_along(parse("x2 + 1"), {1, 3}) == 0
    assert order_along(parse("x1*x3 + x3^2"), {1, 3}) == 2


def test_substitution_inverse_identity():
    from quarticvp.quartic import mat_inverse

    rng = random.Random(19)
    trials = 0
    while trials < 100:
        matrix = tuple(
            tuple(
                GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                for _ in range(4)
            )
            for _ in range(4)
        )
        try:
            inverse = mat_inverse(matrix)
        except ValueError:
            continue
        trials += 1
        f = random_poly(rng)
        assert linear_change(linear_change(f, matrix), inverse) == f


def _coeffs(*values):
    return [GaussianRational(v) for v in values]


def test_univariate_tools():
    cubed = _coeffs(0, 0, 0, 1)
    assert univariate_gcd(cubed, univariate_derivative(cubed)) == _coeffs(0, 0, 1)
    assert unique_multiple_root(cubed) == GaussianRational(0)

    squarefree = _coeffs(1, 0, 0, 1)
    assert univariate_gcd(squarefree, univariate_derivative(squarefree)) == _coeffs(1)
    assert unique_multiple_root(squarefree) is None

    # (t - 2)^2 (t + 1) = t^3 - 3t^2 + 4
    double = _coeffs(4, 0, -3, 1)
    assert unique_multiple_root(double) == GaussianRational(2)


def test_thin_compositions():
    f = parse("x1^2*x2 + x2*x3 + 4")
    assert f.homogeneous_component(2) == parse("x2*x3")
    assert f.homogeneous_component(5).is_zero()
    assert not f.is_homogeneous()
    assert parse("x1^2 + x2*x3").is_homogeneous()
    assert f.total_degree() == 3 and order_along(f, (0, 1, 2, 3)) == 0
