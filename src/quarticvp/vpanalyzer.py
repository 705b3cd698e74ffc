"""Volume-preserving analysis of weighted blowups at the marked point.

Two routes are always run and must agree:

* the direct discrepancy a(E) = (1 + a + b - 1) - wt(D) for each weight
  assignment, and
* the stepwise toric description from :mod:`quarticvp.blowup`.

The toric chains start from the quartic's stored chart A + B + C, while
``direct_vp`` dehomogenizes the full equation itself, so a fault in the
stored chart cannot reach both routes and pass the cross-check unseen.

A weight triple counts as volume preserving when some assignment of
{1, a, b} to (x1, x2, x3) has discrepancy zero; the per-assignment results
stay visible because the normal form breaks the x2/x3 symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .blowup import run_toric_description
from .errors import ConsistencyViolation
from .poly import dehomogenize, weighted_order
from .quartic import SLOTS, NormalizedQuartic

# weight pairs whose blowup can initiate a Sarkisov link from P^3
LINK_PAIRS = frozenset({(1, 1), (1, 2), (2, 3), (2, 5)})

DEFAULT_MAX_B = 12
# a vp weight (1, a, b) has a + b <= mu + 1 (Furuya-Tomari) and the Milnor
# number of a point on a quartic K3 is at most 19, so no larger b is vp
MAX_B = 19


@dataclass(frozen=True)
class AssignmentResult:
    """One assignment's direct discrepancy and the steps of its toric chain."""

    assignment: tuple
    discrepancy: int
    steps: list

    @property
    def stepwise_vp(self) -> bool:
        return all(s.vp for s in self.steps)

    def to_json(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "discrepancy": self.discrepancy,
            "stepwise_vp": self.stepwise_vp,
        }

    def trace_json(self) -> dict:
        """The stepwise chain, as ``check --json`` prints it."""
        return {
            "weights": sorted(self.assignment),
            "assignment": list(self.assignment),
            "steps": [s.to_json() for s in self.steps],
            "overall_vp": self.stepwise_vp,
        }


@dataclass
class WeightVerdict:
    a: int
    b: int
    results: list = field(default_factory=list)

    @property
    def weights(self) -> tuple:
        return (1, self.a, self.b)

    @property
    def vp(self) -> bool:
        return any(r.discrepancy == 0 for r in self.results)

    @property
    def initiates_link(self) -> bool:
        return self.vp and (self.a, self.b) in LINK_PAIRS

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights),
            "vp": self.vp,
            "initiates_link": self.initiates_link,
            "assignments": [r.to_json() for r in self.results],
        }


def direct_vp(q: NormalizedQuartic, weights) -> int:
    """The discrepancy (w1 + w2 + w3 - 1) - wt(D) of one assignment."""
    w1, w2, w3 = weights
    affine = dehomogenize(q.full_equation(), 0)
    return (w1 + w2 + w3 - 1) - weighted_order(affine, (w1, w2, w3))


def vp_conditions(weights) -> tuple:
    """The named coefficients that vanish at a point where ``weights`` is vp.

    These are the names, in ``SLOTS`` order, whose monomial has weighted
    order below the threshold w1 + w2 + w3 - 1 that ``direct_vp`` measures
    against; the tangent cone A must reach that threshold as well.
    """
    threshold = sum(weights) - 1
    return tuple(
        name
        for name, e in SLOTS.items()
        if sum(w * k for w, k in zip(weights, e)) < threshold
    )


def distinct_assignments(a: int, b: int) -> list:
    """All distinct ways to give the weights {1, a, b} to (x1, x2, x3)."""
    seen = []
    for perm in (
        (1, a, b),
        (1, b, a),
        (a, 1, b),
        (b, 1, a),
        (a, b, 1),
        (b, a, 1),
    ):
        if perm not in seen:
            seen.append(perm)
    return seen


def analyze_weight(q: NormalizedQuartic, a: int, b: int) -> WeightVerdict:
    """Evaluate one coprime weight triple (1, a, b), given with a and b in
    either order, by both methods and insist they agree."""
    a, b = sorted((a, b))
    if math.gcd(a, b) != 1:
        raise ValueError(f"weights (1,{a},{b}) are not coprime")
    verdict = WeightVerdict(a=a, b=b)
    for assignment in distinct_assignments(a, b):
        disc = direct_vp(q, assignment)
        result = AssignmentResult(assignment, disc, run_toric_description(q, assignment))
        if (disc == 0) != result.stepwise_vp:
            raise ConsistencyViolation(
                f"direct discrepancy {disc} but stepwise vp={result.stepwise_vp} "
                f"for weights {assignment} on {q.to_json()}"
            )
        verdict.results.append(result)
    return verdict


def default_max_a(tag) -> int:
    """Bound on ``a`` from the resolution length of the classified ``TypeTag``."""
    return max(1, tag.resolution_point_blowups())


def enumerate_vp(q: NormalizedQuartic, max_a: int, max_b: int = DEFAULT_MAX_B) -> list:
    """Verdicts for every coprime (a, b) with a <= max_a, b <= max_b."""
    verdicts = []
    for a in range(1, max_a + 1):
        for b in range(a, max_b + 1):
            if math.gcd(a, b) != 1:
                continue
            verdicts.append(analyze_weight(q, a, b))
    return verdicts


def sarkisov_filter(verdicts) -> list:
    """Keep the volume-preserving triples that can initiate a link."""
    return [v for v in verdicts if v.initiates_link]


def vp_set(verdicts) -> set:
    return {v.weights for v in verdicts if v.vp}
