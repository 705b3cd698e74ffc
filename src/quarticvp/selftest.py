"""The acceptance checks shared by the test suite and ``quarticvp selftest``.

Each check is a plain function that returns its list of failures, empty
when it passes.  ``tests/test_acceptance.py`` runs them on the acceptance
sample; ``run`` runs them on the generic witnesses ``generator.corpus``
builds at one or two seeds, so a deployed build can be audited without the
development environment.  The claimed-table comparisons (criteria 4 and 5)
are the row checks of ``tables``, which ``quarticvp tables`` runs; the
kernel properties on random polynomials (criterion 10) stay in the test
suite.
"""

from __future__ import annotations

from . import fixtures
from .generator import corpus, refused
from .poly import format_poly, parse
from .quartic import normalize_at_point
from .singclass import TypeTag, classify
from .tables import check_condition_rows, compute_condition_table
from .vpanalyzer import default_max_a, enumerate_vp, vp_set

LABELS = {
    "a19_classification": "A19 fixture classifies as A>=8",
    "a19_vp_set": "A19 vp weights are exactly (1,1,1),(1,1,2) in both fixture frames",
    "a19_coordinate_change": "recorded coordinate change is term-for-term exact",
    "key_lemma": "stepwise vp iff direct discrepancy zero",
    "bounds": "a <= ceil(n/2), a+b <= n+1 on A_n; discrepancies >= 0",
    "condition_tables": "condition tables: met iff vp, single toggles flip",
    "resolution_counts": "criteria step counts and refinement chains",
    "text_round_trips": "witness text parses back to the same equation",
}

# D-E refinement steps the classifier certificate records per type
REFINEMENT_CHAINS = {
    ("D", 5): ["D5 <- A3"],
    ("D", 6): ["D6 <- D4"],
    ("D", 7): ["D5 <- A3", "D7 <- D5"],
    ("D", 8): ["D6 <- D4", "D8 <- D6"],
    ("D", 9): ["D5 <- A3", "D7 <- D5", "D9 <- D7"],
    ("D", 10): ["D6 <- D4", "D8 <- D6", "D10 <- D8"],
    ("E", 6): ["E6 <- A5"],
    ("E", 7): ["D6 <- D4", "E7 <- D6"],
    ("E", 8): ["D6 <- D4", "E7 <- D6", "E8 <- E7"],
}


def _a19():
    return normalize_at_point(fixtures.a19_tangent_cone_form(), (1, 0, 0, 0))


def a19_classification() -> list:
    tag, _ = classify(_a19())
    if tag != TypeTag("A", 8, exact=False):
        return [f"classified {tag.label()}, expected A>=8"]
    return []


def a19_vp_set() -> list:
    failures = []
    for frame, f in (
        ("original", fixtures.a19_original()),
        ("tangent-cone form", fixtures.a19_tangent_cone_form()),
    ):
        weights = vp_set(enumerate_vp(normalize_at_point(f, (1, 0, 0, 0)), max_a=4, max_b=12))
        if weights != {(1, 1, 1), (1, 1, 2)}:
            failures.append(f"{frame}: vp set {sorted(weights)}")
    return failures


def a19_coordinate_change() -> list:
    image = fixtures.a19_coordinate_change(fixtures.a19_original())
    if image != fixtures.a19_tangent_cone_form():
        return ["substitution image differs from the fixture"]
    return []


def key_lemma(sweep) -> list:
    """``sweep`` is a list of (spec, weight verdicts); the Key Lemma says
    the stepwise chain is vp exactly when the direct discrepancy is 0."""
    return [
        f"{spec.label()} {result.assignment}"
        for spec, verdicts in sweep
        for verdict in verdicts
        for result in verdict.results
        if (result.discrepancy == 0) != result.stepwise_vp
    ]


def bounds(sweep) -> list:
    failures = []
    for spec, verdicts in sweep:
        for verdict in verdicts:
            for result in verdict.results:
                if result.discrepancy < 0:
                    failures.append(
                        f"{spec.label()} {result.assignment}: negative discrepancy"
                    )
        if spec.target.family == "A" and spec.target.exact:
            n = spec.target.index
            for verdict in verdicts:
                if verdict.vp and not (
                    verdict.a <= (n + 1) // 2 and verdict.a + verdict.b <= n + 1
                ):
                    failures.append(f"{spec.label()}: vp weight {verdict.weights}")
    return failures


def condition_tables(trials) -> list:
    return [
        failure
        for family in ("A", "DE")
        for trial in trials
        for failure in check_condition_rows(
            f"{family} trial {trial}", compute_condition_table(family, seed=trial)
        )
    ]


def resolution_counts(items) -> list:
    """A_n (n <= 7) takes ceil(n/2) criteria steps; D-E points refine
    along ``REFINEMENT_CHAINS``.  ``items`` are (spec, witness) pairs."""
    failures = []
    for spec, q in items:
        _, cert = classify(q)
        t = spec.target
        if t.family == "A" and t.exact and t.index <= 7:
            expected = (t.index + 1) // 2
            if cert.steps_consumed() != expected:
                failures.append(f"{spec.label()}: {cert.steps_consumed()} steps != {expected}")
        chain = REFINEMENT_CHAINS.get((t.family, t.index))
        if chain is not None and cert.refinement_chain() != chain:
            failures.append(f"{spec.label()}: {cert.refinement_chain()}")
    return failures


def text_round_trips(items) -> list:
    return [
        f"{spec.label()}: text does not parse back"
        for spec, q in items
        if parse(format_poly(q.full_equation())) != q.full_equation()
    ]


def run(seed: int = 0, quick: bool = False) -> list:
    """(label, failures) of every check on the generic witnesses of every
    generator target at 1 (quick) or 2 seeds from ``seed``, as
    ``corpus`` builds them."""
    seeds = 1 if quick else 2
    catalogue = corpus(seed, seeds, 0)
    items = [(spec, q) for spec, q in catalogue if q is not None]
    sweep = [
        (spec, enumerate_vp(q, default_max_a(spec.target), max_b=8 if quick else 12))
        for spec, q in items
    ]
    results = {
        "a19_classification": a19_classification(),
        "a19_vp_set": a19_vp_set(),
        "a19_coordinate_change": a19_coordinate_change(),
        "key_lemma": key_lemma(sweep),
        "bounds": bounds(sweep),
        "condition_tables": condition_tables(range(seed, seed + seeds)),
        "resolution_counts": resolution_counts(items),
        "text_round_trips": text_round_trips(items),
    }
    return [("generic witness of every generator target", refused(catalogue))] + [
        (LABELS[name], failures) for name, failures in results.items()
    ]
