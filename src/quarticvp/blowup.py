"""Stepwise toric description of the (1,a,b)-weighted blowup.

The weighted blowup factors as a chain of ordinary blowups: ``a`` point
blowups inserting the rays (1,1,1), ..., (1,a,a), then ``b-a`` blowups of
the coordinate line {x1 = x3 = 0} inserting (1,a,a+1), ..., (1,a,b).  The
whole chain is volume preserving exactly when every step is, and a step is
volume preserving exactly when its center sits on the strict transform
with the crepant multiplicity: order 2 at a point, order 1 along the line.
``toric_walk`` runs the chain for one ``a`` without end, so the chain of
every (1,a,b) is one of its prefixes.

Everything is tracked in the first affine chart, where every center of the
chain is visible.  The chart maps live here too and are shared with the
local classifier and the witness generator: ``point_chart`` and
``mirror_chart`` for a point blowup, ``line_chart`` for a blowup of the
line {x1 = x3 = 0}.  A line step is the monomial map x3 -> x1*x3, which is
unimodular on exponents, so ``line_chart`` is ``poly.monomial_chart``: it
relabels exponents and does no Q(i) arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import count, islice

from .errors import ReducibleInput
from .poly import (
    Polynomial,
    divide_var_power,
    monomial_chart,
    order_along,
    permute_variables,
    substitute,
)
from .quartic import NormalizedQuartic

POINT = "point"
CURVE = "curve"

_X1 = Polynomial.variable(1)
_X2 = Polynomial.variable(2)
_X3 = Polynomial.variable(3)
# the images of the chart maps, built once
_POINT_IMAGES = {2: _X1 * _X2, 3: _X1 * _X3}
_MIRROR_IMAGES = {1: _X1 * _X2, 3: _X2 * _X3}


def point_chart(g: Polynomial) -> Polynomial:
    """First chart of the blowup at the origin, exceptional power removed."""
    total = substitute(g, _POINT_IMAGES)
    return divide_var_power(total, 1, order_along(total, (1,)))


def mirror_chart(g: Polynomial) -> Polynomial:
    """Second chart, relabeled so the exceptional divisor is again {x1=0}."""
    total = substitute(g, _MIRROR_IMAGES)
    stripped = divide_var_power(total, 2, order_along(total, (2,)))
    return permute_variables(stripped, (0, 2, 1, 3))


def line_chart(g: Polynomial) -> Polynomial:
    """Chart of the blowup of {x1 = x3 = 0}, exceptional power removed."""
    return monomial_chart(g, 1, (3,))


# a step kind: the variables that vanish on its center, the chart of its
# blowup, and the crepant order of the center on the strict transform
StepKind = namedtuple("StepKind", "center chart crepant")
STEP_KINDS = {
    POINT: StepKind((0, 1, 2, 3), point_chart, 2),
    CURVE: StepKind((1, 3), line_chart, 1),
}


@dataclass(frozen=True)
class StepRecord:
    """One chain step: its ray, its kind and the order it measured."""

    ray: tuple
    kind: str
    order: int

    @property
    def discrepancy(self) -> int:
        return STEP_KINDS[self.kind].crepant - self.order

    @property
    def vp(self) -> bool:
        return self.discrepancy == 0

    @property
    def non_canonical(self) -> bool:
        return self.discrepancy < 0

    def to_json(self) -> dict:
        return {
            "ray": list(self.ray),
            "kind": self.kind,
            "order": self.order,
            "discrepancy": self.discrepancy,
            "vp": self.vp,
        }


def step_transform(f: Polynomial, kind: str) -> Polynomial:
    """Strict transform of one chain step, in the first chart."""
    strict = STEP_KINDS[kind].chart(f)
    if strict.is_constant():
        raise ReducibleInput(
            "the exceptional divisor absorbed the whole strict transform"
        )
    return strict


def step_vp(f: Polynomial, kind: str, ray: tuple) -> StepRecord:
    """The step inserting ``ray``, measured against the current equation.

    Point steps need the origin to be a double point (order 2); curve
    steps need the line {x1 = x3 = 0} to lie on the surface with
    multiplicity exactly 1.  Higher orders leave the canonical regime and
    are flagged, never silently accepted.
    """
    return StepRecord(ray, kind, order_along(f, STEP_KINDS[kind].center))


def weight_one_relabeling(assignment):
    """Permutation mapping the weight-1 slot to x1 and sorting (a, b).

    ``assignment`` gives the weight carried by (x1, x2, x3).  Returns the
    variable permutation (as used by permute_variables) and the canonical
    (1, a, b).  Ties keep the original variable order, so the relabeling
    is deterministic.
    """
    order = sorted(range(3), key=lambda i: (assignment[i], i))
    canonical = tuple(assignment[i] for i in order)
    if canonical[0] != 1:
        raise ValueError("one weight must equal 1")
    perm = [0, 0, 0, 0]
    for slot, source in enumerate(order):
        perm[source + 1] = slot + 1
    return tuple(perm), canonical


def toric_walk(f: Polynomial, a: int):
    """The steps of the chain (1,1,1), ..., (1,a,a), (1,a,a+1), ... without end.

    Yields the verdict of each step against the current equation, then
    moves on to its strict transform; the chain of the (1,a,b) blowup is
    the first b records.  A curve step whose center line has order >= 2
    means the exceptional divisor divides the expected strict transform,
    which forces the quartic to be reducible or non-normal, so it raises
    ReducibleInput rather than giving a verdict.
    """
    for i in count(1):
        ray, kind = ((1, i, i), POINT) if i <= a else ((1, a, i), CURVE)
        record = step_vp(f, kind, ray)
        if kind == CURVE and record.non_canonical:
            raise ReducibleInput(
                "the center line is multiple on the strict transform; "
                "the quartic is reducible or non-normal"
            )
        yield record
        f = step_transform(f, kind)


def run_toric_description(q: NormalizedQuartic, assignment) -> list:
    """The step records of the toric chain of one weight assignment: the
    first b steps of the walk for (1, a, b), coprime or not.  The walk
    starts from the quartic's stored chart, relabeled so the weight-1
    variable is x1."""
    perm, (_, a, b) = weight_one_relabeling(assignment)
    f = permute_variables(q.affine_equation(), perm)
    return list(islice(toric_walk(f, a), b))
