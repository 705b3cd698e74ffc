"""Blind sweeps over condition strata.

These document, in executable form, which singularity types actually
coexist with the cumulative vanishing conditions of the non-generic
weights.  The result tables claim deeper types on some strata; the sweeps
show the degree-4 coefficient budget caps the depth instead.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from quarticvp.errors import NonNormalInput, QuarticVPError
from quarticvp.field import GaussianRational
from quarticvp.quartic import COEFF_NAMES, CoefficientTable, X3SQ, quartic_from_table
from quarticvp.singclass import classify


def _random_rank1_quartic(rng, zeroed):
    values = {
        name: GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for name in COEFF_NAMES
    }
    for name in zeroed:
        values[name] = GaussianRational(0)
    return quartic_from_table(X3SQ, CoefficientTable(**values))


def test_123_stratum_caps_at_d7_and_e7():
    """With b0 = beta2 = c0 = 0 no normal quartic is D>=8 or E8.

    The rank-1 descent from this stratum has no x1^3 slot to feed, so the
    second-level root data caps the index; D8..D10 and E8 claims for the
    (1,2,3) weights are vacuous.
    """
    rng = random.Random(101)
    seen = Counter()
    for _ in range(500):
        q = _random_rank1_quartic(rng, ("b0", "beta2", "c0"))
        try:
            tag, _ = classify(q)
            seen[tag.label()] += 1
        except QuarticVPError as exc:
            seen[type(exc).__name__] += 1
    allowed = {"D5", "D6", "D7", "E6", "E7", "D>=11", "NonNormalInput"}
    assert set(seen) <= allowed, seen
    assert {"D5", "D6", "E6"} <= set(seen)


def test_135_stratum_is_always_non_normal():
    """The cumulative (1,3,5) conditions kill the whole second-level
    singular-locus polynomial: every member is singular along a curve."""
    rng = random.Random(202)
    zeroed = ("b0", "c0", "beta2", "beta3", "delta2", "rho2")
    for _ in range(100):
        q = _random_rank1_quartic(rng, zeroed)
        with pytest.raises(NonNormalInput):
            classify(q)


def test_145_stratum_is_always_non_normal():
    """Zeroing b0, b1, c0, c1 leaves every term in (x2, x3)^2, so the
    quartic is singular along the line {x2 = x3 = 0}."""
    rng = random.Random(303)
    zeroed = ("b0", "c0", "beta2", "beta3", "delta2", "delta3")
    seen = Counter()
    for _ in range(100):
        q = _random_rank1_quartic(rng, zeroed)
        try:
            tag, _ = classify(q)
            seen[tag.label()] += 1
        except QuarticVPError as exc:
            seen[type(exc).__name__] += 1
    # the rank-1 descent sees the singular line in its first germ and
    # refuses; no Du Val index, and no D>=11 catch-all, is ever certified
    assert set(seen) == {"NonNormalInput"}, seen
