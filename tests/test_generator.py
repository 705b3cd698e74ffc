import random
from collections import Counter

import pytest

from quarticvp import generator
from quarticvp.errors import ClassificationError, ConsistencyViolation, GenerationError
from quarticvp.field import GaussianRational, ZERO
from quarticvp.generator import (
    COLORED_WEIGHTS,
    GENERATOR_TARGETS,
    GenSpec,
    generate,
    _avoids_colored,
    _Builder,
    _walk_objective,
    satisfies_conditions,
)
from quarticvp.poly import Polynomial, substitute, unique_multiple_root
from quarticvp.quartic import (
    COEFF_NAMES,
    SLOTS,
    X2X3,
    X3SQ,
    CoefficientTable,
    coefficients,
    normalize_at_point,
    quartic_from_table,
)
from quarticvp.singclass import TypeTag, classify
from quarticvp.tables import claimed_vp_table
from quarticvp.vpanalyzer import analyze_weight, default_max_a, enumerate_vp, vp_conditions, vp_set


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
    assert satisfies_conditions(table, vp_conditions(weights))
    assert analyze_weight(q, weights[1], weights[2]).vp


def test_generic_avoids_colored_conditions(witness_corpus):
    for target in (TypeTag("A", 4), TypeTag("A", 7), TypeTag("D", 6)):
        q = dict(witness_corpus)[GenSpec(target, "generic", 2)]
        table = coefficients(q)
        for weights in COLORED_WEIGHTS[(target.family, target.index)]:
            assert not satisfies_conditions(table, vp_conditions(weights))


def test_generic_a_witness_avoids_the_swapped_colored_weights(witness_corpus):
    # A = x2*x3 is symmetric in x2 and x3, so a generic A5 witness with
    # b0 = beta3 = c0 = 0 is vp at (1,2,3) through the assignment (1,3,2)
    q = dict(witness_corpus)[GenSpec(TypeTag("A", 5), "generic", 4)]
    black = claimed_vp_table()["A5"]["black"]
    assert sorted(vp_set(enumerate_vp(q, default_max_a(TypeTag("A", 5))))) == sorted(map(tuple, black))


# D/E builder points that meet a colored weight only through the assignment
# that swaps x1 and x2: (seed, frozen names, target, colored weight)
SWAPPED_DE_POINTS = (
    (1, ("rho2", "sigma0", "lam0"), TypeTag("D", 5), (1, 2, 3)),
    (0, ("rho2", "sigma0", "lam0"), TypeTag("D", 6), (1, 2, 3)),
    (17, ("rho2", "sigma0", "lam0"), TypeTag("E", 6), (1, 2, 3)),
    (0, ("rho2", "sigma0", "sigma1", "tau0", "lam0"), TypeTag("D", 7), (1, 3, 4)),
)


@pytest.mark.parametrize(
    "seed, frozen, target, weights", SWAPPED_DE_POINTS, ids=[p[2].label() for p in SWAPPED_DE_POINTS]
)
def test_generic_de_witness_avoids_the_swapped_colored_weights(seed, frozen, target, weights):
    # A = x3^2 leaves x1 and x2 free to trade weights, so (a, 1, b) can be
    # vp where (1, a, b) is not
    q = _Builder(random.Random(seed), X3SQ, frozen).quartic()
    assert classify(q)[0] == target
    _, a, b = weights
    verdict = analyze_weight(q, a, b)
    assert [r.assignment for r in verdict.results if r.discrepancy == 0] == [(a, 1, b)]
    assert not _avoids_colored(q, target)


def _on_the_multiple_root(q):
    """``q`` after x2 -> x2 + t0*x1, which moves the multiple root t0 of
    p1(1, t) = b0 + beta2*t + rho2*t^2 + sigma0*t^3 to x2 = 0."""
    t = coefficients(q)
    t0 = unique_multiple_root([t.b0, t.beta2, t.rho2, t.sigma0])
    x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
    return normalize_at_point(substitute(q.full_equation(), {2: x2 + x1.scale(t0)}), (1, 0, 0, 0))


def test_de_witnesses_are_built_in_the_flag_frame(witness_corpus):
    # the multiple root of p1 sits at x2 = 0, where the colored weights
    # (1, a, b) are read: a generic D5 or E6 witness that is vp at (1,2,3)
    # there would only pass its row through the choice of frame
    de = [(spec, q) for spec, q in witness_corpus if q is not None and q.A == X3SQ]
    assert {spec.target.label() for spec, _ in de} >= {"D5", "D6", "D10", "E6", "E8"}
    for spec, q in de:
        table = coefficients(q)
        if spec.target != TypeTag("D", 4):
            assert table.b0.is_zero() and table.beta2.is_zero(), spec.label()
    shallow = [
        (spec, q)
        for spec, q in de
        if spec.mode == "generic" and spec.target.label() in ("D5", "D6", "E6")
    ]
    assert len(shallow) == 24
    for spec, q in shallow:
        assert not analyze_weight(_on_the_multiple_root(q), 2, 3).vp, spec.label()


def _d7_quartic(**changes):
    """A D7 quartic in the flag frame whose walk (D5, then A3) is met, with
    ``changes`` applied to its named coefficients."""
    values = dict.fromkeys(COEFF_NAMES, ZERO)
    for name in ("sigma0", "rho2", "rho3", "delta3", "c0"):
        values[name] = GaussianRational.of(1)
    values["beta3"] = GaussianRational.of(2)
    values.update({name: GaussianRational.of(v) for name, v in changes.items()})
    return quartic_from_table(X3SQ, CoefficientTable(**values))


@pytest.mark.parametrize(
    "changes,key",
    [({"c0": 0}, (0, 0)), ({"delta3": 0}, (0, 1)), ({"delta2": 1}, (0, 2)), ({}, None)],
    ids=["cone", "root", "double-root", "met"],
)
def test_walk_objective_keys_the_first_unmet_coefficient(changes, key):
    # stage 0 is the D5 germ: its cone must have rank 1 (key (0, 0)), then
    # coefficients 0 and 1 of its line slice must vanish (keys (0, 1), (0, 2))
    defect = _walk_objective(TypeTag("D", 7))(coefficients(_d7_quartic(**changes)))
    assert (defect[0] if defect else None) == key
    if not changes:
        assert classify(_d7_quartic())[0] == TypeTag("D", 7)


def test_vp_conditions_of_the_colored_weights():
    assert {w: vp_conditions(w) for row in COLORED_WEIGHTS.values() for w in row} == {
        (1, 1, 3): ("b0", "beta2", "rho2", "sigma0"),
        (1, 2, 3): ("b0", "beta2", "c0"),
        (1, 2, 5): ("b0", "beta2", "rho2", "sigma0", "c0", "delta2", "eps2"),
        (1, 3, 4): ("b0", "beta2", "beta3", "c0", "delta2"),
        (1, 3, 5): ("b0", "beta2", "beta3", "rho2", "c0", "delta2"),
        (1, 4, 5): ("b0", "beta2", "beta3", "c0", "delta2", "delta3"),
    }


def test_vp_conditions_mirror_under_the_x2_x3_swap():
    names = {e: name for name, e in SLOTS.items()}
    swap = {name: names[(e1, e3, e2)] for name, (e1, e2, e3) in SLOTS.items()}
    for a in range(1, 7):
        for b in range(1, 9):
            mirrored = {swap[name] for name in vp_conditions((1, a, b))}
            assert set(vp_conditions((1, b, a))) == mirrored, (a, b)


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
    import hashlib
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
    # the bytes of ``quarticvp generate --corpus --seed 0``: the realized and
    # refused specs of the seed-0 corpus, and every realized quartic, are pinned
    digest = hashlib.sha256(corpus_jsonl(realized).encode()).hexdigest()
    assert digest == "cc58731d93e9fcfe5f0918e402c32b533a40ed88f7da3ad322a4955abf14c3af"


def test_de_witnesses_meet_their_walk_down_the_ladder(witness_corpus):
    """The generic D5-D10 and E6 witnesses, and the specialized E7 (1,2,3)
    ones with their D6 point at infinity, meet the walk down
    ``singclass.SUB_GERM`` from their type.  Generic E7 and E8 witnesses are
    left out: their builds stall on p[1] of the D6 germ and still classify
    right (CHANGES.md, FOUND on the D/E walk)."""
    checked = Counter()
    for spec, q in witness_corpus:
        label = spec.target.label()
        generic = spec.mode == "generic" and label in ("D5", "D6", "D7", "D8", "D9", "D10", "E6")
        at_infinity = label == "E7" and spec.mode == (1, 2, 3)
        if q is None or not (generic or at_infinity):
            continue
        assert _walk_objective(spec.target, at_infinity)(coefficients(q)) is None, spec.label()
        checked[label, at_infinity] += 1
    expected = {(f"D{k}", False): 8 for k in range(5, 11)} | {("E6", False): 8, ("E7", True): 3}
    assert checked == expected


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


def test_a_build_assembles_no_quartic_inside_its_probes(monkeypatch):
    # the A-family probes read criteria off copies of the builder's table;
    # only the returned witness is assembled into a quartic
    built = []

    def counting_quartic_from_table(a_part, table):
        built.append(table)
        return quartic_from_table(a_part, table)

    monkeypatch.setattr(generator, "quartic_from_table", counting_quartic_from_table)
    q = generator._build_a(TypeTag("A", 7), (), random.Random(0))
    assert len(built) == 1
    assert classify(q)[0] == TypeTag("A", 7)
