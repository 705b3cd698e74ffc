import random

import pytest

from quarticvp.generator import GENERATOR_TARGETS, GenSpec
from quarticvp.poly import linear_change, parse, permute_variables
from quarticvp.quartic import normalize_at_point
from quarticvp.singclass import TypeTag, classify
from quarticvp.vpanalyzer import (
    analyze_weight,
    default_max_a,
    direct_vp,
    distinct_assignments,
    enumerate_vp,
    sarkisov_filter,
    vp_set,
)

from conftest import random_point_fixing_frame

P0 = (1, 0, 0, 0)


def test_direct_vp_examples():
    node = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4"), P0)
    assert direct_vp(node, (1, 1, 1)) == 0
    witness = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4"), P0
    )
    assert direct_vp(witness, (1, 2, 3)) == 0


def test_a19_direct_values(a19_pair):
    _, eq1 = a19_pair
    q = normalize_at_point(eq1, P0)
    assert direct_vp(q, (1, 1, 2)) == 0
    assert direct_vp(q, (1, 2, 3)) > 0


def test_distinct_assignments():
    assert distinct_assignments(1, 1) == [(1, 1, 1)]
    assert len(distinct_assignments(1, 2)) == 3
    assert len(distinct_assignments(2, 3)) == 6


def test_analyze_weight_agreement_and_links():
    q = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4"), P0
    )
    verdict = analyze_weight(q, 2, 3)
    assert verdict.vp and verdict.initiates_link
    for result in verdict.results:
        assert (result.discrepancy == 0) == result.stepwise_vp
    with pytest.raises(ValueError):
        analyze_weight(q, 2, 4)


def test_analyze_weight_reads_a_and_b_in_either_order():
    """The link verdict keys on the sorted pair, so (3, 2) is (2, 3)."""
    q = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4"), P0
    )
    swapped = analyze_weight(q, 3, 2)
    assert swapped.to_json() == analyze_weight(q, 2, 3).to_json()
    assert swapped.weights == (1, 2, 3) and swapped.initiates_link


def test_enumerate_vp_sets():
    a2 = normalize_at_point(parse("x0^2*x2*x3 + x0*x1^3 + x2^4 + x3^4"), P0)
    assert vp_set(enumerate_vp(a2, default_max_a(TypeTag("A", 2)))) == {(1, 1, 1), (1, 1, 2)}

    a1 = normalize_at_point(parse("x0^2*(x1^2 + x2^2 + x3^2) + x1^4 + x2^4"), P0)
    assert vp_set(enumerate_vp(a1, default_max_a(TypeTag("A", 1)))) == {(1, 1, 1)}


def test_x3_divides_b_enables_113():
    # b0 = beta2 = rho2 = sigma0 = 0 but x3 does not divide C
    q = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2*x3 + x2^2*x3) + x2^4 + x3^4"), P0
    )
    tag, _ = classify(q)
    weights = vp_set(enumerate_vp(q, default_max_a(tag)))
    assert (1, 1, 3) in weights


def test_sarkisov_filter():
    q = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2*x3 + x2^2*x3) + x2^4 + x3^4"), P0
    )
    tag, _ = classify(q)
    verdicts = enumerate_vp(q, default_max_a(tag))
    filtered = {v.weights for v in sarkisov_filter(verdicts)}
    assert (1, 1, 3) not in filtered
    assert (1, 1, 1) in filtered and (1, 1, 2) in filtered
    assert sarkisov_filter([]) == []


def test_default_max_a_follows_resolution_counts():
    assert default_max_a(TypeTag("A", 4)) == 2
    assert default_max_a(TypeTag("A", 7)) == 4
    assert default_max_a(TypeTag("D", 6)) == 4
    assert default_max_a(TypeTag("E", 8)) == 8


def test_permutation_soundness():
    q = normalize_at_point(
        parse("x0^2*x2*x3 + x0*(x1^2*x3 + x1*x2^2) + x2^4"), P0
    )
    f = q.full_equation()
    # swapping x2 and x3 in the equation mirrors swapping the weights
    swapped = normalize_at_point(permute_variables(f, (0, 1, 3, 2)), P0)
    for weights in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)):
        w_swapped = (weights[0], weights[2], weights[1])
        assert direct_vp(q, weights) == direct_vp(swapped, w_swapped)


def test_monotone_specialization():
    from quarticvp.generator import GenSpec, generate

    base = generate(GenSpec(TypeTag("A", 6), (1, 2, 3), 3))
    deeper = generate(GenSpec(TypeTag("A", 6), (1, 2, 5), 3))
    tag = TypeTag("A", 6)
    base_set = vp_set(enumerate_vp(base, default_max_a(tag)))
    deeper_set = vp_set(enumerate_vp(deeper, default_max_a(tag)))
    assert (1, 2, 3) in base_set
    assert {(1, 2, 3), (1, 2, 5)} <= deeper_set


@pytest.mark.parametrize(
    "target", [t for t in GENERATOR_TARGETS if t.family == "A"], ids=lambda t: t.label()
)
def test_a_family_vp_set_is_invariant_under_point_fixing_frames(target, witness_corpus):
    """x -> M x with M e0 = e0 keeps the marked point (1:0:0:0) but moves the
    tangent cone off x2*x3; read in the normal-form frame, the seed-0
    generic witness keeps its vp set in two random frames."""
    q = dict(witness_corpus)[GenSpec(target, "generic", 0)]
    expected = vp_set(enumerate_vp(q, default_max_a(target), max_b=6))
    rng = random.Random(target.index)
    for _ in range(2):
        moved = linear_change(q.full_equation(), random_point_fixing_frame(rng))
        verdicts = enumerate_vp(normalize_at_point(moved, P0), default_max_a(target), max_b=6)
        assert vp_set(verdicts) == expected
