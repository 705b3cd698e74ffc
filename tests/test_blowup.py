from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quarticvp import blowup
from quarticvp.blowup import (
    CURVE,
    POINT,
    line_chart,
    mirror_chart,
    point_chart,
    run_toric_description,
    step_transform,
    step_vp,
    toric_walk,
    weight_one_relabeling,
)
from quarticvp.errors import ReducibleInput
from quarticvp.poly import (
    Polynomial,
    divide_var_power,
    monomial_chart,
    order_along,
    parse,
    permute_variables,
    substitute,
    weighted_order,
)
from quarticvp.quartic import normalize_at_point
from quarticvp.vpanalyzer import analyze_weight, enumerate_vp

from conftest import random_poly

P0 = (1, 0, 0, 0)
X1, X3 = Polynomial.variable(1), Polynomial.variable(3)


def test_ray_sequences():
    f = parse("x2*x3 + x1^5")
    assert [(s.ray, s.kind) for s in islice(toric_walk(f, 1), 1)] == [((1, 1, 1), POINT)]
    assert [(s.ray, s.kind) for s in islice(toric_walk(f, 2), 3)] == [
        ((1, 1, 1), POINT),
        ((1, 2, 2), POINT),
        ((1, 2, 3), CURVE),
    ]
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    steps = run_toric_description(q, (1, 2, 5))
    assert [s.kind for s in steps] == [POINT, POINT, CURVE, CURVE, CURVE]
    assert steps[-1].ray == (1, 2, 5)
    # any ray (1, c, d) has a chain, coprime or not
    assert [s.ray for s in run_toric_description(q, (1, 2, 4))] == [
        (1, 1, 1),
        (1, 2, 2),
        (1, 2, 3),
        (1, 2, 4),
    ]


def test_step_transform_examples():
    f = parse("x2*x3 + x1^3 + x3^4")
    assert step_transform(f, POINT) == parse("x2*x3 + x1 + x1^2*x3^4")
    g = parse("x2*x3 + x1*x2^2")
    assert step_transform(g, CURVE) == parse("x2*x3 + x2^2")
    cone = parse("x2*x3")
    assert step_transform(cone, POINT) == cone


def test_step_vp_examples():
    node = step_vp(parse("x2*x3 + x1^3"), POINT, (1, 1, 1))
    assert node.vp and node.order == 2 and node.discrepancy == 0 and node.ray == (1, 1, 1)
    on_line = step_vp(parse("x2*x3"), CURVE, (1, 1, 2))
    assert on_line.vp and on_line.order == 1
    off_line = step_vp(parse("x2 + x3^2"), CURVE, (1, 1, 2))
    assert not off_line.vp and off_line.order == 0 and off_line.discrepancy == 1
    worse = step_vp(parse("x1^3 + x2^3 + x3^3"), POINT, (1, 1, 1))
    assert not worse.vp and worse.non_canonical


def test_relabeling_is_deterministic():
    perm, canonical = weight_one_relabeling((2, 1, 1))
    assert canonical == (1, 1, 2)
    # x2 carries the 1 and moves to slot x1; ties keep variable order
    assert perm == (0, 3, 1, 2)
    with pytest.raises(ValueError):
        weight_one_relabeling((2, 2, 3))


def test_ordinary_blowup_always_vp():
    for text in (
        "x0^2*x2*x3 + x0*x1^3 + x2^4",
        "x0^2*x3^2 + x0*(x1^3 + x2^3) + x2^4",
        "x0^2*(x1^2 + x2^2 + x3^2) + x1^4 + x2^4",
    ):
        q = normalize_at_point(parse(text), P0)
        steps = run_toric_description(q, (1, 1, 1))
        assert len(steps) == 1 and steps[0].vp


def test_112_needs_rank_at_most_2():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    assert all(s.vp for s in run_toric_description(q, (1, 1, 2)))
    q1 = normalize_at_point(
        parse("x0^2*(x1^2 + x2^2 + x3^2) + x0*x1^3 + x2^4"), P0
    )
    assert not any(
        all(s.vp for s in run_toric_description(q1, assignment))
        for assignment in ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    )


def test_123_conditions_on_a_ge_4():
    # beta2 = c0 = 0: volume preserving
    special = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4"), P0
    )
    assert all(s.vp for s in run_toric_description(special, (1, 2, 3)))
    # beta2 != 0 blocks the curve step
    generic = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x2 + x1^2*x3 + x1*x2^2) + x2^2*x3^2"), P0
    )
    steps = run_toric_description(generic, (1, 2, 3))
    assert [s.vp for s in steps] == [True, True, False]
    assert steps[2].kind == CURVE


def test_reducibility_contradiction_is_an_error():
    # D-E case with rho2 = delta2 = beta3 = 0 on the (1,2,4) ray: the
    # exceptional divisor divides the strict transform
    q = normalize_at_point(
        parse("x0^2*x3^2 + x0*(x1*x2*x3 + x2^3) + x2^4 + x3^4"), P0
    )
    with pytest.raises(ReducibleInput):
        run_toric_description(q, (1, 2, 5))


def test_trace_json_shape():
    q = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    (result,) = [r for r in analyze_weight(q, 1, 2).results if r.assignment == (1, 1, 2)]
    data = result.trace_json()
    assert data["weights"] == [1, 1, 2]
    assert data["overall_vp"] is True
    assert [s["ray"] for s in data["steps"]] == [[1, 1, 1], [1, 1, 2]]
    assert all(set(s) == {"ray", "kind", "order", "discrepancy", "vp"} for s in data["steps"])


def test_toric_chains_relabel_the_stored_chart(a19_pair, monkeypatch):
    """Every chain of an ``enumerate_vp`` run starts from the quartic's one
    chart object, relabeled; none re-sums A + B + C."""
    q = normalize_at_point(a19_pair[1], P0)
    seen = []  # the inputs themselves, so no id is reused by a freed chart
    relabel = blowup.permute_variables

    def recording(f, perm):
        seen.append(f)
        return relabel(f, perm)

    monkeypatch.setattr(blowup, "permute_variables", recording)
    verdicts = enumerate_vp(q, 2, 5)
    assert len(seen) == sum(len(v.results) for v in verdicts) > 0
    assert {id(f) for f in seen} == {id(q.affine_equation())}


def _substituted_line_chart(g):
    """The line chart as a substitution followed by an exact division."""
    total = substitute(g, {3: X1 * X3})
    return divide_var_power(total, 1, order_along(total, (1,)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rng=st.randoms(use_true_random=False), with_x0=st.booleans())
def test_monomial_chart_is_each_blowup_chart(rng, with_x0):
    g = random_poly(rng, max_terms=8, max_degree=6)
    if not with_x0:
        g = substitute(g, {0: Polynomial.constant(1)})
    assume(not g.is_zero())
    line = line_chart(g)
    assert line == _substituted_line_chart(g)
    assert monomial_chart(g, 1, (2, 3)) == point_chart(g)
    assert permute_variables(monomial_chart(g, 2, (1, 3)), (0, 2, 1, 3)) == mirror_chart(g)
    # a unimodular exponent map: no two terms meet, every coefficient survives
    assert Counter(line.terms.values()) == Counter(g.terms.values())


def test_monomial_chart_refuses_zero():
    with pytest.raises(ValueError):
        monomial_chart(Polynomial.zero(), 1, (3,))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_step_orders_are_weighted_order_increments(witness_corpus, data):
    """Step k measures wt_{r_k}(f) - wt_{r_(k-1)}(f) on the relabeled chart f,
    with wt_{r_0} = 0.  A test oracle only: the walk measures each step on
    its own strict transform, so the two vp routes stay independent."""
    q = data.draw(st.sampled_from([q for _, q in witness_corpus if q is not None]))
    a = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(a, 8))
    assignment = data.draw(st.permutations((1, a, b)))
    try:
        steps = run_toric_description(q, assignment)
    except ReducibleInput:
        assume(False)
    perm, _ = weight_one_relabeling(assignment)
    f = permute_variables(q.affine_equation(), perm)
    previous = 0
    for step in steps:
        wt = weighted_order(f, step.ray)
        assert step.order == wt - previous
        previous = wt


def test_both_walk_refusals_run_through_the_line_chart():
    q = normalize_at_point(parse("x0^2*x3^2"), P0)
    with pytest.raises(ReducibleInput, match="absorbed the whole strict transform"):
        run_toric_description(q, (2, 3, 1))
    with pytest.raises(ReducibleInput, match="center line is multiple on the strict transform"):
        run_toric_description(q, (1, 2, 3))


def test_line_steps_make_no_substitution(a19_pair, monkeypatch):
    # a line step relabels exponents; only a point step substitutes
    q = normalize_at_point(a19_pair[1], P0)
    substitutions, transforms = [], Counter()
    substitute_ = blowup.substitute
    step_transform_ = blowup.step_transform

    def counting_substitute(f, images):
        substitutions.append(f)
        return substitute_(f, images)

    def counting_step_transform(f, kind):
        transforms[kind] += 1
        return step_transform_(f, kind)

    monkeypatch.setattr(blowup, "substitute", counting_substitute)
    monkeypatch.setattr(blowup, "step_transform", counting_step_transform)
    enumerate_vp(q, 2, 5)
    assert transforms[CURVE] > 0
    assert len(substitutions) == transforms[POINT]
