import random

import pytest

from quarticvp import generator
from quarticvp.errors import ClassificationError, ConsistencyViolation, GenerationError
from quarticvp.generator import (
    COLORED_WEIGHTS,
    CONDITIONS_A,
    GENERATOR_TARGETS,
    WEIGHT_CONDITIONS,
    GenSpec,
    generate,
    _Builder,
    prior_conditions,
    satisfies_conditions,
)
from quarticvp.quartic import X2X3, coefficients
from quarticvp.singclass import TypeTag, classify
from quarticvp.tables import claimed_vp_table
from quarticvp.vpanalyzer import analyze_weight, enumerate_vp, vp_set


@pytest.mark.parametrize("target", GENERATOR_TARGETS, ids=lambda t: t.label())
def test_generic_roundtrip(target, witness_corpus):
    q = dict(witness_corpus)[GenSpec(target, "generic", 0)]
    tag, _ = classify(q)
    assert tag == target


def test_seeded_determinism():
    spec = GenSpec(TypeTag("D", 7), "generic", 11)
    assert generate(spec).to_json() == generate(spec).to_json()
    other = generate(GenSpec(TypeTag("D", 7), "generic", 12))
    assert other.to_json() != generate(spec).to_json()


@pytest.mark.parametrize(
    "family,index,weights",
    [
        ("A", 3, (1, 1, 3)),
        ("A", 4, (1, 2, 3)),
        ("A", 6, (1, 2, 5)),
        ("A", 7, (1, 3, 5)),
        ("D", 5, (1, 2, 3)),
        ("D", 7, (1, 3, 4)),
        ("E", 6, (1, 2, 3)),
        ("E", 7, (1, 2, 3)),
    ],
)
def test_specialized_strata(family, index, weights, witness_corpus):
    target = TypeTag(family, index, exact=True)
    q = dict(witness_corpus)[GenSpec(target, weights, 0)]
    tag, _ = classify(q)
    assert tag == target
    table = coefficients(q)
    assert satisfies_conditions(table, WEIGHT_CONDITIONS[weights])
    assert analyze_weight(q, weights[1], weights[2]).vp


def test_generic_avoids_colored_conditions(witness_corpus):
    for target in (TypeTag("A", 4), TypeTag("A", 7), TypeTag("D", 6)):
        q = dict(witness_corpus)[GenSpec(target, "generic", 2)]
        table = coefficients(q)
        for weights in COLORED_WEIGHTS[(target.family, target.index)]:
            assert not satisfies_conditions(table, WEIGHT_CONDITIONS[weights])


def test_generic_a_witness_avoids_the_swapped_colored_weights(witness_corpus):
    # A = x2*x3 is symmetric in x2 and x3, so a generic A5 witness with
    # b0 = beta3 = c0 = 0 is vp at (1,2,3) through the assignment (1,3,2)
    q = dict(witness_corpus)[GenSpec(TypeTag("A", 5), "generic", 4)]
    black = claimed_vp_table()["A5"]["black"]
    assert sorted(vp_set(enumerate_vp(q, tag=TypeTag("A", 5)))) == sorted(map(tuple, black))


def test_weight_conditions_follow_the_ray_tables():
    assert WEIGHT_CONDITIONS == {
        (1, 1, 3): ("b0", "beta2", "rho2", "sigma0"),
        (1, 2, 3): ("b0", "beta2", "c0"),
        (1, 2, 5): ("b0", "beta2", "c0", "rho2", "delta2", "sigma0", "eps2"),
        (1, 3, 4): ("b0", "c0", "beta2", "beta3", "delta2"),
        (1, 3, 5): ("b0", "c0", "beta2", "beta3", "delta2", "rho2"),
        (1, 4, 5): ("b0", "c0", "beta2", "beta3", "delta2", "delta3"),
    }
    # the A-family weights read the same conditions off the A table
    for weights, names in WEIGHT_CONDITIONS.items():
        if weights in CONDITIONS_A:
            assert prior_conditions(weights, CONDITIONS_A) + CONDITIONS_A[weights][0] == names


def test_unsupported_specializations_rejected():
    with pytest.raises(ValueError):
        GenSpec(TypeTag("A", 2), (1, 1, 3), 0)
    with pytest.raises(ValueError):
        GenSpec(TypeTag("D", 5), (1, 3, 4), 0)
    # targets with no builder: exact A8, D11 and the D/E catch-alls
    for target in (
        TypeTag("A", 8),
        TypeTag("D", 11),
        TypeTag("D", 11, exact=False),
        TypeTag("E", 6, exact=False),
    ):
        with pytest.raises(ValueError, match="no generator for"):
            GenSpec(target, "generic", 0)


def test_unrealizable_stratum_exhausts_retries():
    # the (1,3,5) conditions force the cubic of the tangent data into a
    # perfect cube, so no D7 quartic can meet them
    with pytest.raises(GenerationError):
        generate(GenSpec(TypeTag("D", 7), (1, 3, 5), 0))


def test_corpus_jsonl(witness_corpus):
    import json

    from quarticvp.generator import corpus_jsonl
    from quarticvp.quartic import NormalizedQuartic

    realized = [(spec, q) for spec, q in witness_corpus if q is not None]
    assert len(realized) < len(witness_corpus)  # refused specs are kept as None
    lines = corpus_jsonl(realized).strip().split("\n")
    assert len(lines) == len(realized)
    first = json.loads(lines[0])
    assert set(first) == {"target", "mode", "seed", "quartic"}
    restored = NormalizedQuartic.from_json(first["quartic"])
    assert restored.A == realized[0][1].A


def test_consistency_violation_is_never_retried(monkeypatch):
    # a direct vs stepwise disagreement is a bug, not a refused attempt
    calls = []

    def disagree(q, a, b):
        calls.append((a, b))
        raise ConsistencyViolation("direct and stepwise routes disagree")

    monkeypatch.setattr(generator, "analyze_weight", disagree)
    with pytest.raises(ConsistencyViolation):
        generate(GenSpec(TypeTag("A", 4), (1, 2, 3), 0))
    assert calls == [(2, 3)]


def test_probe_solver_skips_refusals_but_not_bugs():
    builder = _Builder(random.Random(0), X2X3)

    def refused(q):
        raise ClassificationError("not canonical")

    def inconsistent(q):
        raise ConsistencyViolation("direct and stepwise routes disagree")

    assert builder.solve(refused, ("b0", "c0")) is False
    with pytest.raises(ConsistencyViolation):
        builder.solve(inconsistent, ("b0",))
