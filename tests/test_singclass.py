import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quarticvp import fixtures, singclass
from quarticvp.errors import ClassificationError, NonNormalInput, QuarticVPError
from quarticvp.blowup import mirror_chart, point_chart
from quarticvp.field import GaussianRational, ONE, ZERO
from quarticvp.poly import (
    Polynomial,
    linear_change,
    parse,
    squarefree_excess,
    unique_multiple_root,
    weighted_order,
)
from quarticvp.quartic import (
    COEFF_NAMES,
    SLOTS,
    CoefficientTable,
    X2X3,
    X3SQ,
    coefficients,
    normalize_at_point,
    normalize_cone,
    quartic_from_table,
)
from quarticvp.selftest import REFINEMENT_CHAINS
from quarticvp.singclass import (
    SUB_GERM,
    Certificate,
    TypeTag,
    a_chain_quantities,
    brute_force_classify,
    classify,
    classify_local,
    de_coarse,
    line_slice,
)
from quarticvp.vpanalyzer import distinct_assignments, vp_conditions

P0 = (1, 0, 0, 0)

WITNESSES = [
    ("x0^2*(x1^2 + x2^2 + x3^2) + x0*x1^3 + x1^4 + x2^4", "A1"),
    ("x0^2*x2*x3 + x0*x1^3 + x1^4 + x2^4 + x3^4", "A2"),
    ("x0^2*x2*x3 + x0*x1^2*x2 + x1^4", "A3"),
    ("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4", "A4"),
    ("x0^2*x3^2 + x0*(x1^3 + x2^3) + x1^4 + x2^4", "D4"),
    ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3 + x1^2*x3) + x2^4", "D5"),
    ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3) + x1^3*x2", "D6"),
    ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3) + x1^3*x3", "D7"),
    ("x0^2*x3^2 + x0*x2^3 + x1^4", "E6"),
    ("x0^2*x3^2 + x0*x2^3 + x1^3*x2", "E7"),
    ("x0^2*x3^2 + x0*(x2^3 + x1^2*x3) + x1^3*x3 + 1/4*x1^4", "E8"),
]


@pytest.mark.parametrize("text,expected", WITNESSES)
def test_known_witnesses(text, expected):
    tag, _ = classify(normalize_at_point(parse(text), P0))
    assert tag.label() == expected


def test_a19_is_at_least_a8(a19_pair):
    _, eq1 = a19_pair
    tag, cert = classify(normalize_at_point(eq1, P0))
    assert tag == TypeTag("A", 8, exact=False)
    assert cert.steps_consumed() == 4


def test_a19_chain_quantities_vanish(a19_pair):
    _, eq1 = a19_pair
    table = coefficients(normalize_at_point(eq1, P0))
    q = a_chain_quantities(table)
    assert table.c0 == table.beta2 * table.beta3
    assert q["zeta"].is_zero()
    assert q["xi2"] == GaussianRational(0, -4)
    assert q["xi3"] == GaussianRational(0, 4)
    assert q["xi2"] * q["xi3"] == q["alpha"]
    assert q["theta"].is_zero()
    assert q["gamma2"] * q["gamma3"] == q["mu"]
    # the final products are 20 = 20, computed from the fixture
    assert q["mu"] == GaussianRational(20)


@pytest.mark.parametrize(
    "text,chain",
    [
        ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3 + x1^2*x3) + x2^4", ["D5 <- A3"]),
        ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3) + x1^3*x2", ["D6 <- D4"]),
        ("x0^2*x3^2 + x0*(x1*x2^2 + x2^3) + x1^3*x3", ["D5 <- A3", "D7 <- D5"]),
        ("x0^2*x3^2 + x0*x2^3 + x1^4", ["E6 <- A5"]),
        ("x0^2*x3^2 + x0*x2^3 + x1^3*x2", ["D6 <- D4", "E7 <- D6"]),
        (
            "x0^2*x3^2 + x0*(x2^3 + x1^2*x3) + x1^3*x3 + 1/4*x1^4",
            ["D6 <- D4", "E7 <- D6", "E8 <- E7"],
        ),
    ],
)
def test_refinement_chains_follow_the_type(text, chain):
    _, cert = classify(normalize_at_point(parse(text), P0))
    assert cert.refinement_chain() == chain


def test_refinement_chains_are_paths_down_the_ladder():
    """``selftest.REFINEMENT_CHAINS`` is criterion 9's own statement of the
    chains; each entry is its type's walk down ``SUB_GERM``, read bottom up."""
    assert set(REFINEMENT_CHAINS) == {(t.family, t.index) for t in SUB_GERM}
    for (family, index), chain in REFINEMENT_CHAINS.items():
        tag, path = TypeTag(family, index), []
        while tag in SUB_GERM:
            path.insert(0, f"{tag.label()} <- {SUB_GERM[tag].label()}")
            tag = SUB_GERM[tag]
        assert path == chain, (family, index)


D5_TEXT = "x0^2*x3^2 + x0*(x1*x2^2 + x2^3 + x1^2*x3) + x2^4"
E6_TEXT = "x0^2*x3^2 + x0*x2^3 + x1^4"
NOT_CANONICAL = "-type point cannot sit over {}; input is not canonical"


def _classify_over(monkeypatch, text, sub):
    """Classify ``text`` with the type of every sub-germ planted as ``sub``."""
    monkeypatch.setattr(singclass, "_classify_germ", lambda g, cert, depth: sub)
    return classify(normalize_at_point(parse(text), P0))


@pytest.mark.parametrize(
    "text,sub,label",
    [(D5_TEXT if t.family == "D" else E6_TEXT, over, t.label()) for t, over in SUB_GERM.items()]
    + [(D5_TEXT, sub, "D>=11") for sub in (TypeTag("D", 9), TypeTag("D", 10), TypeTag("D", 11, False))],
)
def test_de_chain_lifts_through_the_ladder(monkeypatch, text, sub, label):
    """A D>4 or E point takes the type one rung up ``SUB_GERM`` from its
    sub-germ; over D9, D10 or D>=11 a D>4 point is D>=11."""
    tag, cert = _classify_over(monkeypatch, text, sub)
    assert tag.label() == label
    assert cert.refinement_chain() == [f"{label} <- {sub.label()}"]


@pytest.mark.parametrize(
    "text,sub,message",
    [
        (D5_TEXT, TypeTag("E", 7), "a D-type point cannot refine to an E-type point"),
        (D5_TEXT, TypeTag("A", 5), "a D" + NOT_CANONICAL.format("A5")),
        (E6_TEXT, TypeTag("A", 3), "an E" + NOT_CANONICAL.format("A3")),
        (E6_TEXT, TypeTag("D", 11, False), "an E" + NOT_CANONICAL.format("D>=11")),
    ],
)
def test_de_chain_refuses_a_sub_germ_off_the_ladder(monkeypatch, text, sub, message):
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        _classify_over(monkeypatch, text, sub)


def test_step_counts_match_resolution_length():
    for text, expected in WITNESSES:
        if not expected.startswith("A"):
            continue
        tag, cert = classify(normalize_at_point(parse(text), P0))
        n = tag.index
        assert cert.steps_consumed() == (n + 1) // 2


# (name, verdict, step) of each criterion's certificate entry when it
# vanishes, and when it is nonzero and decides the type
LADDER_ZERO = [
    ("b0 (*1)", "zero: A>=3", 1),
    ("c0 - beta2*beta3 (*2)", "zero: A>=4", 2),
    ("zeta (*3)", "zero: A>=5", 2),
    ("xi2*xi3 - alpha (*4)", "zero: A>=6", 3),
    ("theta (*5)", "zero: A>=7", 3),
    ("gamma2*gamma3 - mu", "zero: A>=8", 4),
]
LADDER_NONZERO = [
    ("b0 (*1)", "nonzero: A2", 1),
    ("c0 - beta2*beta3 (*2)", "nonzero: A3", 2),
    ("zeta", "nonzero: A4", 2),
    ("xi2*xi3 - alpha (*4)", "nonzero: A5", 3),
    ("theta", "nonzero: A6", 3),
    ("gamma2*gamma3 - mu", "nonzero: A7", 4),
]


def _criteria_entries(cert):
    return [(e.name, e.verdict, e.step) for e in cert.entries]


@pytest.mark.parametrize("index", range(2, 8))
def test_criteria_certificate_labels(index):
    from quarticvp.generator import GenSpec, generate

    q = generate(GenSpec(TypeTag("A", index), "generic", 0))
    tag, cert = classify(q)
    assert tag == TypeTag("A", index)
    assert _criteria_entries(cert) == LADDER_ZERO[: index - 2] + [LADDER_NONZERO[index - 2]]


def test_a19_criteria_certificate_labels(a19_pair):
    _, eq1 = a19_pair
    _, cert = classify(normalize_at_point(eq1, P0))
    assert _criteria_entries(cert) == LADDER_ZERO


def test_swap_x2_x3_is_invisible():
    swaps = {
        "beta2": "beta3",
        "rho2": "rho3",
        "sigma0": "sigma3",
        "sigma1": "sigma2",
        "delta2": "delta3",
        "eps2": "eps3",
        "tau0": "tau3",
        "tau1": "tau2",
        "lam0": "lam4",
        "lam1": "lam3",
    }
    from quarticvp.generator import GenSpec, generate

    for index in (2, 3, 4, 5, 6, 7):
        q = generate(GenSpec(TypeTag("A", index), "generic", 5))
        coeffs = coefficients(q)
        table = {name: getattr(coeffs, name) for name in COEFF_NAMES}
        swapped = dict(table)
        for a, b in swaps.items():
            swapped[a], swapped[b] = table[b], table[a]
        q_swapped = quartic_from_table(X2X3, CoefficientTable(**swapped))
        assert classify(q_swapped)[0] == classify(q)[0]


def test_brute_force_agrees_with_criteria_chain():
    from quarticvp.generator import GenSpec, generate

    for index in (2, 3, 4, 5):
        for seed in range(3):
            q = generate(GenSpec(TypeTag("A", index), "generic", 40 + seed))
            chain_tag, _ = classify(q)
            oracle_tag, _ = brute_force_classify(q)
            assert oracle_tag == chain_tag == TypeTag("A", index)


def test_criteria_chain_vs_blowups_on_raw_random_tables():
    """The closed-form chain and the explicit blowups agree on arbitrary
    rank-2 inputs, not just generator output; zero-biased draws push the
    samples into the deeper strata."""
    import random
    from fractions import Fraction

    from quarticvp.quartic import COEFF_NAMES

    rng = random.Random(9090)
    seen = set()
    for _ in range(400):
        values = {}
        for name in COEFF_NAMES:
            if rng.random() < 0.45:
                values[name] = GaussianRational(0)
            else:
                values[name] = GaussianRational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                )
        q = quartic_from_table(X2X3, CoefficientTable(**values))
        chain_tag, _ = classify(q)
        oracle_tag, _ = brute_force_classify(q)
        assert chain_tag == oracle_tag, values
        seen.add(chain_tag.label())
    # the bias must actually reach past the first criteria steps
    assert {"A2", "A3", "A4", "A5"} <= seen


def test_certificate_replay():
    for text, _ in WITNESSES:
        q = normalize_at_point(parse(text), P0)
        tag1, cert1 = classify(q)
        tag2, cert2 = classify(q)
        assert tag1 == tag2
        assert [e.to_json() for e in cert1.entries] == [
            e.to_json() for e in cert2.entries
        ]


def test_reducible_and_nonnormal_inputs_error():
    # x0 divides the equation: the blown-up line is wholly singular
    q = normalize_at_point(parse("x0^2*x3^2 + x0*x2^3"), P0)
    with pytest.raises(NonNormalInput):
        classify(q)


def test_classify_local_rejects_smooth_and_triple():
    with pytest.raises(ClassificationError):
        classify_local(parse("x1 + x2^2"))
    with pytest.raises(ClassificationError):
        classify_local(parse("x1^3 + x2^3 + x3^3"))


def test_de_coarse_split_direct():
    # p1 = 1 + t^3: nonzero discriminant
    assert de_coarse(CoefficientTable(b0=1, sigma0=1, lam2=1), Certificate()) == "D4"
    # p1 = t^3: one triple root
    assert de_coarse(CoefficientTable(sigma0=1, lam0=1), Certificate()) == "E"
    # degree-1 p1 is always D>4
    assert de_coarse(CoefficientTable(beta2=1, lam0=1), Certificate()) == "D>4"
    # p1 identically zero contradicts normality
    with pytest.raises(NonNormalInput):
        de_coarse(CoefficientTable(sigma1=1, lam0=1), Certificate())


def test_de_coarse_cases():
    # degree-3 squarefree p1: three A1 points, and the chain confirms D4
    tag, cert = classify(
        normalize_at_point(parse("x0^2*x3^2 + x0*(x1^3 + x2^3) + x2^4"), P0)
    )
    assert tag == TypeTag("D", 4)
    entries = [(e.name, e.verdict) for e in cert.entries]
    assert entries[0] == ("disc(p1)", "nonzero: D4")
    assert ("line singularities", "D4") in entries
    # degree-1 p1 is always D>4
    tag, cert = classify(
        normalize_at_point(
            parse("x0^2*x3^2 + x0*x1^2*x2 + x1^2*x3^2 + x2^4 + x2^3*x3"), P0
        )
    )
    assert tag.family == "D" and (tag.index > 4 or not tag.exact)
    assert [e.name for e in cert.entries][:2] == ["disc(p1)", "Hessian(p1)"]


def _de_cases_oracle(t):
    """The coarse split as the degree cases of p1 stated it before the
    invariants, with divisions by sigma0 for a genuine cubic."""
    p1 = [t.b0, t.beta2, t.rho2, t.sigma0]
    while p1 and p1[-1].is_zero():
        p1.pop()
    degree = len(p1) - 1
    if degree < 0:
        raise NonNormalInput("p1 vanishes identically")
    if degree == 3:
        s0, r0 = t.sigma0, t.rho2
        r1 = (t.beta2 * s0 * 3 - r0 * r0) / (s0 * s0 * 3)
        s1 = (r0**3 * 2 - s0 * r0 * t.beta2 * 9 + s0 * s0 * t.b0 * 27) / (s0**3 * 27)
        disc = -(r1**3 * 4 + s1 * s1 * 27)
        return "D4" if disc else "D>4" if r1 else "E"
    if degree == 2:
        return "D4" if t.beta2 * t.beta2 - t.rho2 * t.b0 * 4 else "D>4"
    return "D>4" if degree == 1 else "E"


def _small(rng, zero_bias=0.0):
    if rng.random() < zero_bias:
        return ZERO
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.3 else 0
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)


def _p1_tables(rng, count):
    """Tables of p1 = sigma0*s^3 + rho2*s^2*t + beta2*s*t^2 + b0*t^3: raw
    zero-biased draws, p1 = 0, and products of linear forms u*s + v*t with
    planted double and triple roots, finite or at infinity (u = 0)."""
    for k in range(count):
        if k % 6 == 0:
            p1 = [_small(rng, 0.45) for _ in range(4)]
        elif k % 6 == 1:
            p1 = [ZERO] * 4
        else:
            forms = []
            for multiplicity in ((1, 1, 1), (2, 1), (3,))[k % 3]:
                u = ZERO if rng.random() < 0.3 else _small(rng, 0.2)
                v = _small(rng) if u else GaussianRational(1 + rng.randint(0, 2))
                forms += [(u, v)] * multiplicity
            (u1, v1), (u2, v2), (u3, v3) = forms
            scale = _small(rng) or GaussianRational(1)
            p1 = [
                scale * u1 * u2 * u3,
                scale * (u1 * u2 * v3 + u1 * v2 * u3 + v1 * u2 * u3),
                scale * (u1 * v2 * v3 + v1 * u2 * v3 + v1 * v2 * u3),
                scale * v1 * v2 * v3,
            ]
        yield CoefficientTable(**dict(zip(("sigma0", "rho2", "beta2", "b0"), p1)))


def test_de_coarse_agrees_with_the_degree_cases():
    """The discriminant and Hessian of p1 give the class the degree cases
    gave, roots at infinity included, and refuse p1 = 0 the same way."""
    rng = random.Random(1616)
    seen = set()
    for t in _p1_tables(rng, 3000):
        try:
            expected = _de_cases_oracle(t)
        except NonNormalInput:
            with pytest.raises(NonNormalInput):
                de_coarse(t, Certificate())
            seen.add("p1 = 0")
            continue
        assert de_coarse(t, Certificate()) == expected, t
        seen.add((expected, "finite" if t.sigma0 else "at infinity"))
    classes = {(c, where) for c in ("D4", "D>4", "E") for where in ("finite", "at infinity")}
    assert classes | {"p1 = 0"} <= seen


def test_no_d_above_4_point_is_vp_at_1_3_5():
    """Certificate: no D>4 point is vp at (1,3,5), so the D7-D10 (1,3,5)
    cells hold no witness.

    A point with A = x3^2 is vp at (1,3,5) only through an assignment s of
    {1,3,5} to (x1,x2,x3) under which the cone itself reaches the
    threshold 1+3+5-1 = 8: wt_s(x3^2) = 2*s3 >= 8 forces s3 = 5, so s is
    (1,3,5) or (3,1,5).  The cubic p1 = B(x1,x2,0) = sigma0*x2^3 +
    rho2*x1*x2^2 + beta2*x1^2*x2 + b0*x1^3 has weighted orders 9, 7, 5, 3
    under (1,3,5) and 3, 5, 7, 9 under (3,1,5).  Each is below 8 in all
    slots but one, so ``vp_conditions(s)`` leaves only sigma0 (p1 =
    sigma0*x2^3), respectively only b0 (p1 = b0*x1^3).  A cube has zero
    discriminant and zero Hessian, so ``de_coarse`` says E, and it refuses
    p1 = 0 as non-normal: a point that meets the conditions is never D>4.
    """
    rng = random.Random(135)
    reaching = [s for s in distinct_assignments(3, 5) if weighted_order(X3SQ, s) >= 8]
    assert reaching == [(1, 3, 5), (3, 1, 5)]
    seen = set()
    for assignment, survivor in zip(reaching, ("sigma0", "b0")):
        conditions = vp_conditions(assignment)
        assert [n for n in ("sigma0", "rho2", "beta2", "b0") if n not in conditions] == [survivor]
        free = [n for n in COEFF_NAMES if n not in conditions]
        for _ in range(200):
            t = CoefficientTable(**{n: _small(rng, 0.3) for n in free})
            if getattr(t, survivor).is_zero():
                with pytest.raises(NonNormalInput):
                    de_coarse(t, Certificate())
                seen.add((assignment, "p1 = 0"))
            else:
                assert de_coarse(t, Certificate()) == "E", t
                seen.add((assignment, "E"))
    assert len(seen) == 4


def test_no_e6_point_is_vp_at_1_3_5():
    """Certificate: no E6 point is vp at (1,3,5), so the E6 (1,3,5) cell
    holds no witness.

    By Furuya-Tomari (Proc. AMS 132, 2004), a weight (1, a, b) that is vp at
    a canonical point of Milnor number mu has a + b <= mu + 1.  E6 has
    mu = 6, and 3 + 5 = 8 > 7.  The sample checks it on the points the vp
    conditions leave: for each assignment s under which the cone x3^2
    reaches the threshold 8, tables with every name of ``vp_conditions(s)``
    zero.  ``classify`` either gives another type or refuses the point.
    """
    rng = random.Random(1356)
    reaching = [s for s in distinct_assignments(3, 5) if weighted_order(X3SQ, s) >= 8]
    assert reaching == [(1, 3, 5), (3, 1, 5)]
    for assignment in reaching:
        free = [n for n in COEFF_NAMES if n not in vp_conditions(assignment)]
        for _ in range(200):
            t = CoefficientTable(**{n: _small(rng, 0.3) for n in free})
            try:
                tag, _ = classify(quartic_from_table(X3SQ, t))
            except QuarticVPError:
                continue  # refused: the point is out of scope
            assert tag != TypeTag("E", 6), t


def test_no_normal_x3_squared_point_is_vp_at_1_4_5():
    """Certificate: no normal quartic with A = x3^2 is vp at (1,4,5), so the
    D9, D10 and E8 (1,4,5) cells hold no witness.

    The assignments s of {1,4,5} to (x1,x2,x3) under which the cone reaches
    the threshold 1+4+5-1 = 9 have wt_s(x3^2) = 2*s3 >= 9, which forces
    s3 = 5: they are (1,4,5) and (4,1,5).  Let x_i be the weight-1 variable
    of s.  A monomial of degree d <= 4 whose exponents in the other two
    variables sum to at most 1 is x_i^d or x_i^(d-1)*x_j, of weight at
    most d + 4 <= 8 < 9.  So every name outside ``vp_conditions(s)``, and
    x3^2 itself, sits on a monomial whose exponents in the other two
    variables sum to at least 2: the chart lies in the square of their
    ideal, it has order >= 2 along the x_i-axis, and the surface is
    singular along that line through P.  ``classify`` refuses it as
    non-normal.
    """
    rng = random.Random(145)
    reaching = [s for s in distinct_assignments(4, 5) if weighted_order(X3SQ, s) >= 9]
    assert reaching == [(1, 4, 5), (4, 1, 5)]
    for assignment in reaching:
        axis = assignment.index(1) + 1
        conditions = vp_conditions(assignment)
        free = [n for n in COEFF_NAMES if n not in conditions]
        monomials = [(0,) + SLOTS[n] for n in free] + [(0, 0, 0, 2)]
        assert all(sum(mono) - mono[axis] >= 2 for mono in monomials), assignment
        for _ in range(30):
            t = CoefficientTable(**{n: _small(rng, 0.3) for n in free})
            with pytest.raises(NonNormalInput):
                classify(quartic_from_table(X3SQ, t))


def test_de_coarse_discriminant_is_sympys():
    sympy = pytest.importorskip("sympy")
    a, b, c, d, s, t = sympy.symbols("a b c d s t")
    binary = sympy.discriminant(a * s**3 + b * s**2 * t + c * s * t**2 + d * t**3, s)
    generic = sympy.expand(binary.subs(t, 1))

    def exact(x):
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    rng = random.Random(77)
    tables = [p1 for p1 in _p1_tables(rng, 40) if p1.sigma0 or p1.rho2 or p1.beta2 or p1.b0]
    assert any(not p1.sigma0 for p1 in tables[:12])
    for table in tables[:12]:
        cert = Certificate()
        de_coarse(table, cert)
        values = {a: table.sigma0, b: table.rho2, c: table.beta2, d: table.b0}
        delta = sympy.expand(generic.subs({k: exact(v) for k, v in values.items()}))
        re, im = (Fraction(int(x.p), int(x.q)) for x in (sympy.re(delta), sympy.im(delta)))
        assert cert.entries[0].name == "disc(p1)"
        assert cert.entries[0].value == str(GaussianRational(re, im)), table


def _planted_rank1_germs(rng, count):
    """Random rank-1 germs brought to x3^2 by ``normalize_cone``, with the
    cubic p(t) = B(1, t, 0) replaced by a product of factors u + v*t: a root
    at t = 0 when u = 0 and at infinity when v = 0, planted as double and
    triple roots; every sixth cubic is zero.  Yields the germ and its
    multiple root (None when there is none)."""
    x1, x2, x3 = (Polynomial.variable(i) for i in (1, 2, 3))
    higher = [(0, i, j, d - i - j) for d in (3, 4) for i in range(d + 1) for j in range(d + 1 - i)]
    for k in range(count):
        line = x1.scale(_small(rng)) + x2.scale(_small(rng)) + x3.scale(_small(rng) or ONE)
        terms = {m: _small(rng, 0.8) for m in higher}
        g, _ = normalize_cone((line * line).scale(_small(rng) or ONE) + Polynomial(terms))
        p, roots = [ZERO], []
        if k % 6:
            p = [ONE]
            for m in ((1, 1, 1), (2, 1), (3,))[k % 3]:
                u, v = rng.choice([(ZERO, ONE), (ONE, ZERO), (_small(rng), _small(rng) or ONE)])
                roots += ["infinity" if v.is_zero() else -u / v] * m
                for _ in range(m):
                    p = [a * u + b * v for a, b in zip(p + [ZERO], [ZERO] + p)]
        multiple = next((r for r in roots if roots.count(r) > 1), None)
        terms = {m: c for m, c in g.terms.items() if not (m[3] == 0 and m[1] + m[2] == 3)}
        terms.update({(0, 3 - e, e, 0): c for e, c in enumerate(p)})
        yield Polynomial(terms), multiple


def test_the_mirror_chart_slice_is_the_point_chart_slice_reversed():
    """Both charts of the blowup slice the exceptional line in one binary
    cubic, so ``_de_chain`` reads it once: the mirror slice has 3 - deg p
    leading zeros (the roots at infinity) and is empty exactly when p is,
    and a multiple root that is not at infinity is ``unique_multiple_root(p)``."""
    rng = random.Random(1919)
    seen = Counter()
    for g, multiple in _planted_rank1_germs(rng, 180):
        p = line_slice(point_chart(g))
        mirror = line_slice(mirror_chart(g))
        assert (not p) == (not mirror)
        if not p:
            seen["empty"] += 1
            continue
        at_infinity = 3 - (len(p) - 1)
        assert all(c.is_zero() for c in mirror[:at_infinity]) and mirror[at_infinity], g
        seen[at_infinity] += 1
        if squarefree_excess(p) and at_infinity <= 1:
            assert unique_multiple_root(p) == multiple, g
            seen["finite multiple"] += 1
    assert {0, 1, 2, 3, "empty", "finite multiple"} <= seen.keys(), seen


def test_invariants_vs_blowups_on_raw_random_rank1_tables():
    """The D/E twin of the A test above: on raw zero-biased x3^2 tables,
    half of them with b0 = beta2 = 0 so that p1 has a multiple root, the
    classifier (invariants confirmed by the chain) and the bare chain give
    the same type or the same refusal, and never a consistency violation.
    No table reaches the D>=11 catch-all."""
    rng = random.Random(4242)
    counts = Counter()
    for k in range(300):
        values = {}
        for name in COEFF_NAMES:
            if rng.random() < 0.45 or (k % 2 and name in ("b0", "beta2")):
                values[name] = GaussianRational(0)
            else:
                values[name] = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        q = quartic_from_table(X3SQ, CoefficientTable(**values))
        outcomes = []
        for route in (classify, brute_force_classify):
            try:
                outcomes.append(route(q)[0].label())
            except QuarticVPError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1], values
        counts[outcomes[0]] += 1
    assert {"D4", "D5", "D6", "E6", "E7"} <= counts.keys(), counts
    # a germ singular along its x1-axis is a non-isolated point, refused
    # as NonNormalInput instead of running into the D>=11 depth cap
    assert "D>=11" not in counts, counts


# -- metamorphic: the type does not depend on the coordinates ----------------

FRAME_CASES = [(parse(text), expected) for text, expected in WITNESSES] + [
    (fixtures.a19_tangent_cone_form(), "A>=8")
]

SMALL_Q_I = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@pytest.mark.parametrize("f,expected", FRAME_CASES, ids=[e for _, e in FRAME_CASES])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(entries=st.lists(SMALL_Q_I, min_size=13, max_size=13))
def test_type_is_invariant_under_point_fixing_frames(f, expected, entries):
    """x -> M x with M e0 = M00 e0 keeps the marked point (1:0:0:0); the
    frame is otherwise dense, so normalization, the criteria chain and the
    blowup walks all run on new coefficients."""
    block = [entries[4:7], entries[7:10], entries[10:13]]
    assume(not entries[0].is_zero() and not _det3(block).is_zero())
    matrix = [entries[0:4]] + [[ZERO] + row for row in block]
    tag, _ = classify(normalize_at_point(linear_change(f, matrix), P0))
    assert tag.label() == expected
