import dataclasses
import hashlib
import random

import pytest

from quarticvp.errors import FieldExtensionRequired, GeometryError
from quarticvp.field import GaussianRational, ONE, ZERO
from quarticvp.generator import GenSpec, generate
from quarticvp.poly import Polynomial, dehomogenize, format_poly, linear_change, parse
from quarticvp.quartic import (
    CoefficientTable,
    NormalizedQuartic,
    _linear_form,
    coefficients,
    complete_square,
    frame_sending,
    mat_identity,
    mat_inverse,
    mat_rank,
    normal_form,
    normalize_at_point,
    normalize_cone,
    quad_monomial,
    quadratic_rank,
)
from quarticvp.singclass import TypeTag, classify

from conftest import random_coeff, random_point_fixing_frame

P0 = (1, 0, 0, 0)


def test_identity_normalization():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x3^4"), P0)
    assert q.A == parse("x2*x3")
    assert q.B == parse("x1^3")
    assert q.C == parse("x3^4")


def test_normalization_rejections():
    with pytest.raises(GeometryError, match="not lie"):
        normalize_at_point(parse("x0^4 + x1^4"), P0)
    with pytest.raises(GeometryError, match="nonsingular"):
        normalize_at_point(parse("x0^3*x1 + x2^4"), P0)
    with pytest.raises(GeometryError, match="exceeds 2"):
        normalize_at_point(parse("x0*x1^3 + x2^4"), P0)
    with pytest.raises(GeometryError):
        normalize_at_point(parse("x0^2*x1 + x2^3"), P0)  # not a quartic


def test_point_moved_to_origin():
    f = parse("x3^2*x1*x2 + x0^3*x1 + x0^4")
    q = normalize_at_point(f, (0, 0, 0, 1))
    assert q.A == parse("x2*x3")
    # provenance: the stored change reproduces the stored equation
    assert linear_change(f, q.change) == q.full_equation()


def _frame(point):
    """The matrix normalize_at_point records: the point in column 0, then
    the unit columns of every coordinate but the first nonzero one."""
    pivot = next(i for i, c in enumerate(point) if not c.is_zero())
    columns = [point] + [[ONE if i == j else ZERO for i in range(4)] for j in range(4) if j != pivot]
    return tuple(tuple(columns[j][i] for j in range(4)) for i in range(4))


@pytest.mark.parametrize("pivot", range(4))
def test_point_move_agrees_with_the_dense_change(pivot):
    """f = G(frame^-1 x) for a random G whose x0-degree at most 2 part may
    come with a constant or linear term, at points whose first nonzero
    coordinate is ``pivot``: the result is the normal form of
    dehomogenize(f(frame x)) reached through the frame, a cone that does not
    split over Q(i) is refused on both sides, and the refusals come in the
    order 'does not lie', 'nonsingular', 'exceeds 2'."""
    rng = random.Random(31 + pivot)
    for case in range(6):
        point = [ZERO] * 4
        # case 0 keeps a pivot coordinate of 1; later coordinates may be 0
        point[pivot] = ONE if case == 0 else random_coeff(rng)
        if point[pivot].is_zero():
            point[pivot] = GaussianRational(2, -1)
        for j in range(pivot + 1, 4):
            if case % 2 or rng.random() < 0.5:
                point[j] = random_coeff(rng)
        matrix = _frame(point)
        terms = {}
        for _ in range(rng.randint(4, 12)):
            mono = [0, 0, 0, 0]
            for _ in range(4):
                mono[rng.randrange(4)] += 1
            # a constant or linear part only now and then
            if mono[0] <= 2 or rng.random() < 0.15:
                terms[tuple(mono)] = random_coeff(rng)
        g = Polynomial(terms)
        if g.is_zero():
            continue
        f = linear_change(g, mat_inverse(matrix))
        expected = dehomogenize(linear_change(f, matrix), 0)
        assert expected == dehomogenize(g, 0)
        if not expected.homogeneous_component(0).is_zero():
            refusal = "not lie"
        elif not expected.homogeneous_component(1).is_zero():
            refusal = "nonsingular"
        elif expected.homogeneous_component(2).is_zero():
            refusal = "exceeds 2"
        else:
            try:
                oracle = normal_form(expected, matrix)
            except FieldExtensionRequired:
                with pytest.raises(FieldExtensionRequired):
                    normalize_at_point(f, point)
                continue
            assert normalize_at_point(f, point) == oracle
            continue
        with pytest.raises(GeometryError, match=refusal):
            normalize_at_point(f, point)


def test_tangent_cone_ranks():
    assert quadratic_rank(
        normalize_at_point(parse("x0^2*(x1^2 + x2^2 + x3^2) + x1^4"), P0).A
    ) == 3
    assert quadratic_rank(
        normalize_at_point(parse("x0^2*x2*x3 + x1^4"), P0).A
    ) == 2
    assert quadratic_rank(
        normalize_at_point(parse("x0^2*x3^2 + x1^4"), P0).A
    ) == 1


def test_normal_form_rank2_needs_i():
    f = parse("x0^2*(x1^2 + x2^2) + x0*x1^3 + x3^4")
    q = normal_form(dehomogenize(f, 0), mat_identity(4))
    assert q.A == parse("x2*x3")
    assert linear_change(f, q.change) == q.full_equation()
    assert normalize_at_point(f, P0) == q


def test_normal_form_requires_field_extension():
    f = parse("x0^2*(x1^2 + 2*x2^2) + x0*x1^3 + x3^4")
    with pytest.raises(FieldExtensionRequired):
        normal_form(dehomogenize(f, 0), mat_identity(4))
    with pytest.raises(FieldExtensionRequired):
        normalize_at_point(f, P0)


def test_rank1_scale_needs_no_square_root():
    # 2*F is the same surface as F, though 2 is not a square in Q(i)
    q = generate(GenSpec(TypeTag("D", 4), "generic", 0))
    scaled = normalize_at_point(q.full_equation().scale(2), P0)
    assert scaled.full_equation() == q.full_equation()
    (tag, cert), (tag2, cert2) = classify(q), classify(scaled)
    assert tag2 == tag == TypeTag("D", 4)
    assert cert2.to_json() == cert.to_json()


def test_normal_form_rank1():
    f = parse("x0^2*(x1^2 + 2*x1*x3 + x3^2) + x0*x2^3 + x1^4")
    q = normal_form(dehomogenize(f, 0), mat_identity(4))
    assert q.A == parse("x3^2")
    # a cone already in normal form multiplies no matrix
    again = normal_form(q.affine_equation(), q.change)
    assert again == q and again.change is q.change


def test_normalize_cone_on_germs():
    # a germ is normalized like a quartic and the substitution comes back
    germ = parse("x1^2 + x2^2 + x1^3 + x3^4")
    out, m4 = normalize_cone(germ)
    assert out.homogeneous_component(2) == parse("x2*x3")
    assert linear_change(germ, m4) == out
    germ = parse("2*x1^2 + 4*x1*x3 + 2*x3^2 + x2^3")
    out, m4 = normalize_cone(germ)
    assert out.homogeneous_component(2) == parse("x3^2")
    # the rank-1 cone 2*(x1 + x3)^2 is reached by dividing by 2
    assert linear_change(germ, m4) == out.scale(2)
    assert normalize_cone(out) == (out, mat_identity(4))


def test_rank_invariant_under_point_fixing_changes():
    rng = random.Random(23)
    f = parse("x0^2*x2*x3 + x0*(x1^2*x2 + x2^3) + x1^4 + x3^4")
    base_rank = quadratic_rank(normalize_at_point(f, P0).A)

    for _ in range(10):
        moved = linear_change(f, random_point_fixing_frame(rng))
        assert quadratic_rank(normalize_at_point(moved, P0).A) == base_rank


def test_coefficient_table_and_reconstruction():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    table = coefficients(q)
    assert table.b0.is_one()
    assert table.lam0.is_one()
    assert all(
        getattr(table, name).is_zero()
        for name in ("beta2", "beta3", "c0", "lam4")
    )
    assert table.part(3) == q.B
    assert table.part(4) == q.C


def test_coefficient_table_refuses_unknown_names():
    with pytest.raises(TypeError, match="unknown coefficient names: sigma, zeta"):
        CoefficientTable(sigma=1, b0=2, zeta=3)


def test_a19_named_coefficients(a19_pair):
    _, eq1 = a19_pair
    table = coefficients(normalize_at_point(eq1, P0))
    assert table.b0 == ZERO
    assert table.beta2 == GaussianRational(4)
    assert table.beta3 == GaussianRational(4)
    assert table.c0 == GaussianRational(16)
    # the often-miscited -4i coefficient lives in the delta2 slot
    assert table.delta2 == GaussianRational(0, -4)
    assert table.delta3 == GaussianRational(0, 4)


def test_coefficients_requires_normal_form():
    q = normalize_at_point(parse("x0^2*(x1^2 + x2^2 + x3^2) + x1^4"), P0)
    with pytest.raises(GeometryError):
        coefficients(q)


# an A, a D, an E and a rank-3 point, each with its type under ``classify``
CHART_CASES = [
    ("x0^2*x2*x3 + x0*x1^3 + x3^4", TypeTag("A", 2)),
    ("x0^2*x3^2 + x0*(x1^3 + x2^3) + x1^4 + x2^4", TypeTag("D", 4)),
    ("x0^2*x3^2 + x0*x2^3 + x1^4", TypeTag("E", 6)),
    ("x0^2*(x1^2 + x2^2 + x3^2) + x0*x1^3 + x2^4", TypeTag("A", 1)),
]


@pytest.mark.parametrize("text,tag", CHART_CASES, ids=[tag.label() for _, tag in CHART_CASES])
def test_affine_chart_is_built_once(text, tag):
    """The constructor sums the chart once: every read returns that object,
    and it is the dehomogenized full equation."""
    q = normalize_at_point(parse(text), P0)
    assert classify(q)[0] == tag
    assert q.affine_equation() is q.affine_equation()
    assert q.affine_equation() == dehomogenize(q.full_equation(), 0)


def test_stored_chart_is_not_a_field():
    """Two quartics with the same A, B, C and change are equal, hash alike
    and have one JSON form, though each holds its own chart object."""
    f = "x0^2*x2*x3 + x0*x1^3 + x2^4 - 4*i*x1^3*x2"
    q, r = normalize_at_point(parse(f), P0), normalize_at_point(parse(f), P0)
    assert q.affine_equation() is not r.affine_equation()
    assert q == r and hash(q) == hash(r)
    assert q.to_json() == r.to_json()
    assert [fld.name for fld in dataclasses.fields(q)] == ["A", "B", "C", "change"]


def test_json_roundtrip():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4 - 4*i*x1^3*x2"), P0)
    data = q.to_json()
    back = NormalizedQuartic.from_json(data)
    assert back.A == q.A and back.B == q.B and back.C == q.C
    assert back.change == q.change
    assert back == q and hash(back) == hash(q)
    assert back.affine_equation() == q.affine_equation()


@pytest.mark.parametrize("a", ["x1*x2", "x1^2 + x2^2"])
def test_from_json_refuses_a_cone_not_in_normal_form(a):
    # rank 2 but not literally x2*x3: the constructor holds the invariant
    data = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0).to_json()
    data["A"] = a
    with pytest.raises(GeometryError, match="normal form"):
        NormalizedQuartic.from_json(data)


def _linear(rng, support):
    """A random linear form in the variables ``support``, every coefficient nonzero."""
    form = Polynomial.zero()
    for i in support:
        c = random_coeff(rng)
        form = form + Polynomial.variable(i).scale(c if not c.is_zero() else ONE)
    return form


def _pinned_cones(rng, count):
    """``count`` germs of each cone kind: a rank-2 product of two forms
    with a square term, a rank-2 product with cross terms only (one form
    on one variable, the other on the remaining two), a rank-1 c*L^2, and
    a cone already x2*x3 or x3^2; each with random cubic and quartic
    terms in x1, x2, x3."""
    cubic_and_quartic = [
        (0, i, j, d - i - j) for d in (3, 4) for i in range(d + 1) for j in range(d + 1 - i)
    ]
    for k in range(4 * count):
        kind = k % 4
        if kind == 0:
            cone = _linear(rng, (1, 2, 3)) * _linear(rng, rng.sample((1, 2, 3), rng.randint(1, 3)))
        elif kind == 1:
            alone = rng.randint(1, 3)
            cone = _linear(rng, (alone,)) * _linear(rng, [i for i in (1, 2, 3) if i != alone])
        elif kind == 2:
            form = _linear(rng, rng.sample((1, 2, 3), rng.randint(1, 3)))
            cone = (form * form).scale(random_coeff(rng) or GaussianRational(3))
        else:
            cone = rng.choice((parse("x2*x3"), parse("x3^2")))
        higher = Polynomial({m: random_coeff(rng) for m in rng.sample(cubic_and_quartic, 5)})
        yield kind, cone + higher


def test_normalize_cone_output_is_pinned():
    """The cone normalizer's output and substitution on 40 seeded germs of
    each kind hash to a fixed value, so a rewrite of the frame builder or
    of the square completion cannot move a germ or a change matrix."""
    digest = hashlib.sha256()
    kinds = set()
    for kind, germ in _pinned_cones(random.Random(2604), 40):
        assert 0 < quadratic_rank(germ.homogeneous_component(2)) < 3
        out, m4 = normalize_cone(germ)
        digest.update(format_poly(out).encode())
        digest.update(repr([[str(c) for c in row] for row in m4]).encode())
        kinds.add((kind, quadratic_rank(germ.homogeneous_component(2))))
    assert kinds == {(0, 2), (1, 2), (2, 1), (3, 1), (3, 2)}
    assert digest.hexdigest() == "1a1e64ce3caf3c68da25f94952b33a4a997b127be4ffce6962fea84c2b8571f5"


def test_frame_sending_fixes_x0_and_sends_each_form_to_its_target():
    rng = random.Random(2605)
    for _ in range(60):
        targets = rng.sample((1, 2, 3), rng.randint(1, 3))
        forms = {t: tuple(random_coeff(rng) for _ in range(3)) for t in targets}
        assert mat_rank(tuple(forms.values())) == len(forms)
        change = frame_sending(forms)
        assert change[0] == (ONE, ZERO, ZERO, ZERO)
        assert all(row[0].is_zero() for row in change[1:])
        for t, vec in forms.items():
            assert linear_change(_linear_form(vec), change) == Polynomial.variable(t)


def test_frame_sending_fills_free_rows_in_target_order():
    # e1 depends on the form in row 2, so row 1 takes e2 and row 3 takes e3
    frame = mat_inverse(frame_sending({2: (ONE, ZERO, ZERO)}))
    assert frame == (
        (ONE, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ONE, ZERO),
        (ZERO, ONE, ZERO, ZERO),
        (ZERO, ZERO, ZERO, ONE),
    )
    with pytest.raises(ValueError, match="singular"):
        frame_sending({2: (ONE, ZERO, ZERO), 3: (GaussianRational(2), ZERO, ZERO)})


def test_complete_square_clears_the_first_squared_variable():
    cases = (("x2^2 + 4*x1*x2 - 6*x2*x3 + x1*x3", 2), ("3*x1^2 + x1*x3", 1), ("x1*x2 + x3^2", 3))
    for text, k in cases:
        q = parse(text)
        c, lvec = complete_square(q)
        assert c == q.coefficient(quad_monomial(k, k)) and lvec[k - 1].is_one()
        lpoly = _linear_form(lvec)
        assert all(mono[k] == 0 for mono in (q - (lpoly * lpoly).scale(c)).terms)
    assert complete_square(parse("x1*x2 + 5*x2*x3")) is None
