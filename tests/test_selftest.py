"""The shared acceptance checks can fail: one planted defect per check in
``quarticvp.selftest`` gives at least one failure, while the same input
without the defect gives none."""

from dataclasses import replace

import pytest

from quarticvp import fixtures, selftest
from quarticvp.generator import GenSpec, generate
from quarticvp.poly import format_poly
from quarticvp.singclass import TypeTag
from quarticvp.vpanalyzer import WeightVerdict, analyze_weight


def _generic(family, index):
    spec = GenSpec(TypeTag(family, index), "generic", 0)
    return spec, generate(spec)


@pytest.fixture(scope="module")
def a3():
    """An A3 witness and its (1,1,1) verdict, which has a zero discrepancy."""
    spec, q = _generic("A", 3)
    verdict = analyze_weight(q, 1, 1)
    assert verdict.vp
    return spec, q, verdict


def _plant(verdict, **changes):
    """The verdict with its first zero-discrepancy result changed."""
    results = list(verdict.results)
    i = next(i for i, r in enumerate(results) if r.discrepancy == 0)
    results[i] = replace(results[i], **changes)
    return WeightVerdict(verdict.a, verdict.b, results)


def test_key_lemma_catches_a_disagreement(a3):
    spec, _, verdict = a3
    assert selftest.key_lemma([(spec, [verdict])]) == []
    # the chain of a zero-discrepancy assignment gets one step off its
    # expected order, so it is no longer stepwise vp
    steps = next(r.steps for r in verdict.results if r.discrepancy == 0)
    off = [replace(steps[0], order=steps[0].order + 1)] + steps[1:]
    assert selftest.key_lemma([(spec, [_plant(verdict, steps=off)])])


def test_bounds_catch_a_negative_discrepancy(a3):
    spec, _, verdict = a3
    assert selftest.bounds([(spec, [verdict])]) == []
    assert selftest.bounds([(spec, [_plant(verdict, discrepancy=-1)])])


def test_bounds_catch_a_vp_weight_past_n_plus_1(a3):
    spec, _, verdict = a3
    # (1,2,3) on A3: a + b = 5 > n + 1 = 4
    too_deep = WeightVerdict(2, 3, [replace(verdict.results[0], assignment=(1, 2, 3))])
    assert too_deep.vp
    assert selftest.bounds([(spec, [too_deep])]) == [f"{spec.label()}: vp weight (1, 2, 3)"]


def test_a19_classification_catches_a_wrong_type(monkeypatch):
    monkeypatch.setattr(selftest, "classify", lambda q: (TypeTag("A", 7), None))
    assert selftest.a19_classification() == ["classified A7, expected A>=8"]


def test_a19_vp_set_catches_a_wrong_set(monkeypatch):
    monkeypatch.setattr(selftest, "vp_set", lambda verdicts: {(1, 1, 1)})
    assert selftest.a19_vp_set() == [
        "original: vp set [(1, 1, 1)]",
        "tangent-cone form: vp set [(1, 1, 1)]",
    ]


def test_a19_coordinate_change_catches_a_wrong_image(monkeypatch):
    monkeypatch.setattr(fixtures, "a19_coordinate_change", lambda f: f)
    assert selftest.a19_coordinate_change()


def test_resolution_counts_catch_wrong_steps_and_chains(a3):
    _, q3, _ = a3
    a5, _ = _generic("A", 5)
    d5_spec, d5 = _generic("D", 5)
    d7 = GenSpec(TypeTag("D", 7), "generic", 0)
    assert selftest.resolution_counts([(d5_spec, d5)]) == []
    # an A3 witness takes 2 criteria steps, not A5's 3
    assert selftest.resolution_counts([(a5, q3)]) == [f"{a5.label()}: 2 steps != 3"]
    # a D5 point refines along D5 <- A3 only, short of D7's chain
    assert selftest.resolution_counts([(d7, d5)]) == [f"{d7.label()}: ['D5 <- A3']"]


@pytest.mark.parametrize("field", ["vp_when_met", "toggles_flip"])
def test_condition_tables_catch_a_failing_ray(monkeypatch, field):
    outcome = {"vp_when_met": True, "toggles_flip": True, "note": "planted"}
    outcome[field] = False
    monkeypatch.setattr(
        selftest, "compute_condition_table", lambda family, seed: {"1x2x3": outcome}
    )
    assert len(selftest.condition_tables([0])) == 2  # one per family


def test_text_round_trips_catch_a_lossy_formatter(monkeypatch, a3):
    spec, q, _ = a3
    assert selftest.text_round_trips([(spec, q)]) == []
    monkeypatch.setattr(selftest, "format_poly", lambda f: format_poly(f + f))
    assert selftest.text_round_trips([(spec, q)]) == [f"{spec.label()}: text does not parse back"]
