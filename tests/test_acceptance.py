"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  Criteria 1-3 and 6-9 run the shared checks of
``quarticvp.selftest`` on the acceptance sample.  Criteria 4 and 5 compare
against the claimed result tables cell by cell; cells whose defining
conditions cannot be met by any normal quartic fail here, and deciding
them is ROADMAP item 2.
"""

from __future__ import annotations

import math
import random

import pytest

from quarticvp import selftest
from quarticvp.errors import GenerationError
from quarticvp.generator import COLORED_WEIGHTS, GenSpec, generate
from quarticvp.poly import format_poly, parse
from quarticvp.selftest import LABELS
from quarticvp.singclass import TypeTag
from quarticvp.tables import BLACK_WEIGHTS, LINK_ROWS, RESULT_ROWS
from quarticvp.vpanalyzer import analyze_weight, enumerate_vp, sarkisov_filter, vp_set

SEEDS = (0, 1, 2)

_witnesses: dict = {}


def witness(target: TypeTag, mode):
    """First realizable witness over the standard seeds, memoized."""
    key = (target.family, target.index, target.exact, mode)
    if key not in _witnesses:
        result = None
        for seed in SEEDS:
            try:
                result = generate(GenSpec(target, mode, seed))
                break
            except GenerationError:
                continue
        _witnesses[key] = result
    return _witnesses[key]


def report(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def full_corpus():
    from quarticvp.generator import corpus

    items = corpus(seed=0, generic_seeds=8, special_seeds=3)
    assert len(items) >= 200
    return items


@pytest.fixture(scope="module")
def key_lemma_sweep(full_corpus):
    """analyze_weight over every coprime (a, b) with a + b <= 12.

    analyze_weight itself raises ConsistencyViolation on any direct vs
    stepwise disagreement, so completing the sweep is the equivalence.
    """
    pairs = [
        (a, b)
        for a in range(1, 12)
        for b in range(a, 12)
        if math.gcd(a, b) == 1 and a + b <= 12
    ]
    results = []
    for spec, q in full_corpus:
        verdicts = [analyze_weight(q, a, b) for a, b in pairs]
        results.append((spec, verdicts))
    return results


def test_criterion_1_a19_classification():
    report(1, LABELS["a19_classification"], selftest.a19_classification())


def test_criterion_2_a19_vp_set():
    report(2, LABELS["a19_vp_set"], selftest.a19_vp_set())


def test_criterion_3_coordinate_change_round_trip():
    report(3, LABELS["a19_coordinate_change"], selftest.a19_coordinate_change())


def test_criterion_4_result_table_rows():
    failures = []
    for tag in RESULT_ROWS:
        key = (tag.family, tag.index)
        black = set(BLACK_WEIGHTS.get(key, ((1, 1, 1), (1, 1, 2))))
        for seed in SEEDS:
            try:
                q = generate(GenSpec(tag, "generic", seed))
            except GenerationError:
                failures.append(f"{tag.label()} generic seed {seed}: generation failed")
                continue
            got = vp_set(enumerate_vp(q, tag=tag))
            if got != black:
                failures.append(
                    f"{tag.label()} generic seed {seed}: vp set {sorted(got)} "
                    f"!= black {sorted(black)}"
                )
        for weights in COLORED_WEIGHTS[key]:
            q = witness(tag, weights)
            if q is None:
                failures.append(f"{tag.label()} colored {weights}: no witness realizable")
                continue
            if weights not in vp_set(enumerate_vp(q, tag=tag)):
                failures.append(
                    f"{tag.label()} colored {weights}: witness vp set misses it"
                )
    report(4, "result table rows (generic black sets, colored containment)", failures)


def test_criterion_5_link_table_rows():
    failures = []
    for row, tags, claimed in LINK_ROWS:
        got = set()
        for tag in tags:
            modes = ["generic"] + list(COLORED_WEIGHTS[(tag.family, tag.index)])
            for mode in modes:
                q = witness(tag, mode)
                if q is None:
                    continue
                got |= {v.weights for v in sarkisov_filter(enumerate_vp(q, tag=tag))}
        if got != set(claimed):
            failures.append(f"row {row}: {sorted(got)} != {sorted(set(claimed))}")
    report(5, "link table rows after the Sarkisov filter", failures)


def test_criterion_6_key_lemma_equivalence(key_lemma_sweep):
    failures = selftest.key_lemma(key_lemma_sweep)
    instances = len(key_lemma_sweep)
    assignments = sum(len(v.results) for _, verdicts in key_lemma_sweep for v in verdicts)
    print(f"    checked {instances} instances, {assignments} assignments")
    if instances < 200:
        failures.append(f"only {instances} corpus instances")
    report(6, LABELS["key_lemma"], failures)


def test_criterion_7_bounds(key_lemma_sweep):
    report(7, LABELS["bounds"], selftest.bounds(key_lemma_sweep))


def test_criterion_8_condition_table_toggling():
    report(8, LABELS["condition_tables"], selftest.condition_tables(range(20)))


def test_criterion_9_resolution_counts():
    specs = [GenSpec(tag, "generic", seed) for tag in RESULT_ROWS for seed in SEEDS]
    items = [(spec, generate(spec)) for spec in specs]
    report(9, LABELS["resolution_counts"], selftest.resolution_counts(items))


def test_criterion_10_kernel_properties():
    from conftest import random_poly
    from quarticvp.poly import linear_change, substitute, weighted_order
    from quarticvp.quartic import mat_inverse
    from quarticvp.field import GaussianRational

    failures = []
    rng = random.Random(2024)
    for _ in range(1000):
        f = random_poly(rng)
        if parse(format_poly(f)) != f:
            failures.append(f"round trip: {format_poly(f)}")
            break
    for _ in range(1000):
        f = substitute(random_poly(rng), {0: parse("1")})
        g = substitute(random_poly(rng), {0: parse("1")})
        if f.is_zero() or g.is_zero():
            continue
        w = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        if weighted_order(f * g, w) != weighted_order(f, w) + weighted_order(g, w):
            failures.append("valuation additivity")
            break
    done = 0
    while done < 100:
        matrix = tuple(
            tuple(GaussianRational(rng.randint(-3, 3)) for _ in range(4))
            for _ in range(4)
        )
        try:
            inverse = mat_inverse(matrix)
        except ValueError:
            continue
        done += 1
        f = random_poly(rng)
        if linear_change(linear_change(f, matrix), inverse) != f:
            failures.append("substitution inverse identity")
            break
    report(10, "kernel round-trips, valuation, substitution inverse", failures)
