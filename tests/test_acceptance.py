"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  Every witness comes from the session's one
``generator.corpus`` catalogue (the ``witness_corpus`` fixture); criteria
4, 5 and 9 read only its ``SEEDS`` entries.  Criteria 1-3 and 6-9 run the
shared checks of ``quarticvp.selftest``; criteria 4 and 5 run the row
checks of ``quarticvp.tables`` that ``quarticvp tables`` runs, which
compare against the claimed result tables cell by cell.  Cells whose
defining conditions cannot be met by any normal quartic fail there, and
deciding them is ROADMAP item 5(c).
"""

from __future__ import annotations

import math
import random

import pytest

from quarticvp import selftest, tables
from quarticvp.generator import refused
from quarticvp.poly import format_poly, parse
from quarticvp.selftest import LABELS
from quarticvp.tables import RESULT_ROWS
from quarticvp.vpanalyzer import analyze_weight

SEEDS = (0, 1, 2)


def report(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def row_verdicts(witness_corpus):
    """One ``enumerate_vp`` sweep of the ``SEEDS`` entries, shared by
    criteria 4 and 5."""
    return tables.row_verdicts([(s, q) for s, q in witness_corpus if s.seed in SEEDS])


@pytest.fixture(scope="module")
def key_lemma_sweep(witness_corpus):
    """analyze_weight over every coprime (a, b) with a + b <= 12, on every
    realized corpus member.

    analyze_weight itself raises ConsistencyViolation on any direct vs
    stepwise disagreement, so completing the sweep is the equivalence.
    """
    pairs = [
        (a, b)
        for a in range(1, 12)
        for b in range(a, 12)
        if math.gcd(a, b) == 1 and a + b <= 12
    ]
    return [
        (spec, [analyze_weight(q, a, b) for a, b in pairs])
        for spec, q in witness_corpus
        if q is not None
    ]


def test_criterion_1_a19_classification():
    report(1, LABELS["a19_classification"], selftest.a19_classification())


def test_criterion_2_a19_vp_set():
    report(2, LABELS["a19_vp_set"], selftest.a19_vp_set())


def test_criterion_3_coordinate_change_round_trip():
    report(3, LABELS["a19_coordinate_change"], selftest.a19_coordinate_change())


def test_criterion_4_result_table_rows(row_verdicts):
    report(
        4,
        "result table rows (generic black sets, colored containment)",
        tables.check_vp_rows(row_verdicts),
    )


def test_criterion_5_link_table_rows(row_verdicts):
    report(5, "link table rows after the Sarkisov filter", tables.check_link_rows(row_verdicts))


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


def test_criterion_9_resolution_counts(witness_corpus):
    generic = [
        (spec, q)
        for spec, q in witness_corpus
        if spec.mode == "generic" and spec.seed in SEEDS and spec.target in RESULT_ROWS
    ]
    realized = [(spec, q) for spec, q in generic if q is not None]
    failures = refused(generic) + selftest.resolution_counts(realized)
    report(9, LABELS["resolution_counts"], failures)


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
