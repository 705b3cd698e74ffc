"""Seeded construction of witness quartics for every supported stratum.

Strategy: draw all named coefficients as small random rationals, then
repair them constraint by constraint.

* A-family strata impose the criteria-chain equalities in resolution order;
  each one is affine in some still-free coefficient, so a two-point probe
  solves it exactly.
* D/E strata fix the root structure of p1 directly: a double root (D) or
  triple root (E) at x2 = 0, so b0 = beta2 = 0, which is the frame in which
  their colored weights are read.  They then walk the refinement ladder
  ``singclass.SUB_GERM``, repairing the first unmet defect (rank drop of a
  tangent cone, a node that does not split over Q(i), or prescribed root
  multiplicities one level down) the same way; a three-point quadratic
  probe backs up the affine one where a coefficient enters twice.

Every candidate is validated by running the real classifier; terminating
inequalities and genericity are enforced by rejection within a retry cap.
Strata whose defining conditions force a non-normal surface exhaust the
cap and raise GenerationError instead of returning a fake witness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import islice

from .blowup import mirror_chart, point_chart
from .errors import GenerationError, QuarticVPError
from .field import GaussianRational, ONE, ZERO, rational, sqrt_if_exists
from .poly import Polynomial, weighted_order
from .quartic import (
    COEFF_NAMES,
    CoefficientTable,
    NormalizedQuartic,
    X2X3,
    X3SQ,
    coefficients,
    normalize_cone,
    quad_monomial,
    quadratic_rank,
    quartic_from_table,
)
from .singclass import (
    SUB_GERM,
    TypeTag,
    a_criteria,
    classify,
    cone_slots,
    line_slice,
)
from .vpanalyzer import analyze_weight, distinct_assignments, vp_conditions

MAX_RETRIES = 64

# colored (non-generic) weights of each classification row, per the result
# tables; generic witnesses must avoid each of them
COLORED_WEIGHTS = {
    ("A", 1): (),
    ("A", 2): (),
    ("A", 3): ((1, 1, 3),),
    ("A", 4): ((1, 1, 3), (1, 2, 3)),
    ("A", 5): ((1, 1, 3), (1, 2, 3)),
    ("A", 6): ((1, 1, 3), (1, 2, 3), (1, 2, 5), (1, 3, 4)),
    ("A", 7): ((1, 1, 3), (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5)),
    ("A", 8): ((1, 1, 3), (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5)),
    ("D", 4): (),
    ("D", 5): ((1, 2, 3),),
    ("D", 6): ((1, 2, 3),),
    ("D", 7): ((1, 2, 3), (1, 3, 4), (1, 3, 5)),
    ("D", 8): ((1, 2, 3), (1, 3, 4), (1, 3, 5)),
    ("D", 9): ((1, 2, 3), (1, 3, 4), (1, 3, 5), (1, 4, 5)),
    ("D", 10): ((1, 2, 3), (1, 3, 4), (1, 3, 5), (1, 4, 5)),
    ("E", 6): ((1, 2, 3), (1, 3, 4), (1, 3, 5)),
    ("E", 7): ((1, 2, 3), (1, 3, 4), (1, 3, 5)),
    ("E", 8): ((1, 2, 3), (1, 3, 4), (1, 3, 5), (1, 4, 5)),
}

GENERATOR_TARGETS = tuple(
    TypeTag(f, i, exact=not (f == "A" and i == 8)) for f, i in COLORED_WEIGHTS
)


@dataclass(frozen=True)
class GenSpec:
    target: TypeTag
    mode: tuple | str  # "generic" or a weight triple (1, a, b)
    seed: int

    def __post_init__(self):
        if self.target not in GENERATOR_TARGETS:
            raise ValueError(f"no generator for {self.target.label()}")
        if self.mode != "generic":
            allowed = COLORED_WEIGHTS.get((self.target.family, self.target.index), ())
            if tuple(self.mode) not in allowed:
                raise ValueError(
                    f"weights {self.mode} are not a special stratum of "
                    f"{self.target.label()}"
                )

    def label(self) -> str:
        mode = "generic" if self.mode == "generic" else "x".join(map(str, self.mode))
        return f"{self.target.label()}:{mode}:{self.seed}"


def _draw(rng: random.Random) -> GaussianRational:
    return rational(rng.randint(-9, 9), rng.randint(1, 9))


def _draw_nonzero(rng: random.Random) -> GaussianRational:
    while True:
        v = _draw(rng)
        if not v.is_zero():
            return v


# what a refused probe evaluates to inside _Builder.solve
_REFUSED = object()


class _Builder:
    """One coefficient table with frozen slots; probes evaluate copies of it."""

    def __init__(self, rng: random.Random, a_part: Polynomial, frozen=()):
        self.a_part = a_part
        drawn = CoefficientTable(**{name: _draw(rng) for name in COEFF_NAMES})
        self.table = drawn._replace(**dict.fromkeys(frozen, ZERO))
        self.frozen = set(frozen)

    def set(self, name, value, freeze=True):
        value = GaussianRational.of(value)
        if name in self.frozen and getattr(self.table, name) != value:
            raise GenerationError(f"conflicting constraint on frozen {name}")
        self.table = self.table._replace(**{name: value})
        if freeze:
            self.frozen.add(name)

    def quartic(self) -> NormalizedQuartic:
        return quartic_from_table(self.a_part, self.table)

    def solve(self, objective, candidates) -> bool:
        """Zero ``objective(table)`` by adjusting one free coefficient.

        ``objective`` returns None when satisfied, else the defect value.
        A probe the objective refuses (raises a QuarticVPError) is skipped.
        """

        def value_at(name, v):
            try:
                return objective(self.table._replace(**{name: v}))
            except QuarticVPError:
                return _REFUSED

        for name in candidates:
            if name in self.frozen:
                continue
            base = getattr(self.table, name)
            y0 = value_at(name, base)
            if y0 is None:
                return True
            if y0 is _REFUSED:
                continue
            y1 = value_at(name, base + ONE)
            if y1 is _REFUSED:
                continue
            if y1 is None:
                self.set(name, base + ONE, freeze=False)
                return True
            slope = y1 - y0
            if slope:
                root = base - y0 / slope
                if value_at(name, root) is None:
                    self.set(name, root, freeze=False)
                    return True
            y2 = value_at(name, base + 2)
            if y2 is _REFUSED:
                continue
            if y2 is None:
                self.set(name, base + 2, freeze=False)
                return True
            # quadratic fit through t = 0, 1, 2 in the offset from base
            p = (y2 - y1 * 2 + y0) / 2
            q = y1 - y0 - p
            if p.is_zero():
                continue
            disc = sqrt_if_exists(q * q - p * y0 * 4)
            if disc is None:
                continue
            for offset in ((-q + disc) / (p * 2), (-q - disc) / (p * 2)):
                if value_at(name, base + offset) is None:
                    self.set(name, base + offset, freeze=False)
                    return True
        return False


def satisfies_conditions(table: CoefficientTable, names) -> bool:
    return all(getattr(table, n).is_zero() for n in names)


def _avoids_colored(q: NormalizedQuartic, target: TypeTag) -> bool:
    """True unless ``q`` meets a colored weight of ``target`` through some
    assignment: its tangent cone reaches the vp threshold and every name of
    ``vp_conditions`` vanishes."""
    colored = COLORED_WEIGHTS[(target.family, target.index)]
    if not colored:
        return True
    table = coefficients(q)
    return not any(
        weighted_order(q.A, sigma) >= sum(sigma) - 1
        and satisfies_conditions(table, vp_conditions(sigma))
        for _, a, b in colored
        for sigma in distinct_assignments(a, b)
    )


def conforming_instance(family: str, ray, seed: int, side=(), toggle: str | None = None):
    """A random instance of the ``family`` normal form that is vp at ``ray``.

    Every name of ``vp_conditions(ray)`` vanishes, except that ``toggle``
    (one of them) is set to a random nonzero value instead.  The ``side``
    names are forced nonzero, in order.
    """
    rng = random.Random(f"table-row-{family}-{ray}-{seed}-{toggle}")
    frozen = [name for name in vp_conditions(ray) if name != toggle]
    builder = _Builder(rng, X2X3 if family == "A" else X3SQ, frozen)
    for name in side:
        builder.set(name, _draw_nonzero(rng), freeze=False)
    if toggle is not None:
        builder.set(toggle, _draw_nonzero(rng), freeze=False)
    return builder.quartic()


# -- A-family construction -----------------------------------------------------


# probe candidates for zeroing each criterion of the A_n ladder, in order
_A_PROBES = (
    ("b0",),
    ("c0", "beta3", "beta2"),
    ("delta3", "delta2", "rho3", "rho2", "rho23"),
    ("eps23", "eps2", "eps3", "sigma0", "sigma3", "delta2", "delta3"),
    ("tau0", "tau3", "tau1", "tau2", "rho2", "rho3", "rho23"),
    ("lam0", "lam4", "lam1", "lam3", "lam2", "eps2", "eps3"),
)


def _criterion_defect(k: int):
    """Probe objective: criterion k of the A_n ladder, or None once it vanishes."""

    def objective(table: CoefficientTable):
        value, _, _ = next(islice(a_criteria(table), k, None))
        return None if value.is_zero() else value

    return objective


def _build_a(target: TypeTag, frozen, rng: random.Random):
    """Zero criteria 0..n-3 for A_n; an exact A_n needs criterion n-2 nonzero."""
    builder = _Builder(rng, X2X3, frozen)
    for k, candidates in enumerate(_A_PROBES[: target.index - 2]):
        objective = _criterion_defect(k)
        if objective(builder.table) is None:
            continue
        if not builder.solve(objective, candidates):
            return None
    if target.exact and _criterion_defect(target.index - 2)(builder.table) is None:
        return None
    return builder.quartic()


def _build_a1(rng: random.Random):
    while True:
        a_part = Polynomial.zero()
        for i in range(1, 4):
            for j in range(i, 4):
                a_part = a_part + Polynomial.monomial(quad_monomial(i, j), _draw(rng))
        if not a_part.is_zero() and quadratic_rank(a_part) == 3:
            return _Builder(rng, a_part).quartic()


# -- D/E construction -----------------------------------------------------------


def _walk_objective(target: TypeTag, first_at_infinity=False):
    """First unmet defect down ``SUB_GERM`` from ``target``, or None if met.

    Stage s handles the s-th germ below ``target``.  An A germ is the
    terminal: its cone must split.  D4, which has no sub-germ, ends the walk
    after its blowup.  Any other germ zeroes the coefficients of its line
    slice p that put its multiple root where the walk descends: p[0], p[1]
    for a D germ (double root at t = 0, point chart); p[2], p[3] for the
    first D germ if ``first_at_infinity`` and p[1..3] for an E germ (double
    or triple root at infinity, mirror chart).

    A defect is (key, value).  Keys order the defects along the walk, so a
    probe can tell "the targeted defect is gone, a later one surfaced" from
    "an earlier one broke": (stage, 0) for the tangent cone of a stage's
    germ, (stage, k + 1) for coefficient k of that stage's line slice.

    The walk starts at the multiple root of p1, pinned at x2 = 0, and each
    later stage at a singular point of the last exceptional line.  That line
    lies on the strict transform, so every germ has no pure x2^k term and a
    zero x1*x2 slot: its tangent cone is x3^2 + b*x1*x3 + c*x1^2, and when
    the cone has rank 2 its vertex line, the x2-axis, lies on the germ, which
    is then A3 or deeper.  So an A terminal only asks that the cone split
    over Q(i), and the classifier checks the index.
    """
    germs = [SUB_GERM[target]]
    while germs[-1] in SUB_GERM:
        germs.append(SUB_GERM[germs[-1]])

    def objective(table: CoefficientTable):
        germ = point_chart(quartic_from_table(X3SQ, table).affine_equation())
        for stage, sub in enumerate(germs):
            _, b, c = cone_slots(germ)
            gap = b * b - c * 4
            if sub.family == "A":
                if gap and sqrt_if_exists(gap) is not None:
                    return None
                if not c.is_zero():
                    # with c = 0 the cone is x3*(x3 + b*x1)
                    return (stage, 0), c
                raise GenerationError("rank collapsed at an A terminal")
            if not gap.is_zero():
                return (stage, 0), gap
            germ, _ = normalize_cone(germ)
            h = point_chart(germ)
            p = line_slice(h)
            if not p:
                raise GenerationError("exceptional line went fully singular")
            if sub not in SUB_GERM:
                return None
            at_infinity = sub.family == "E" or (stage == 0 and first_at_infinity)
            zeroed = (1, 2, 3) if sub.family == "E" else (2, 3) if at_infinity else (0, 1)
            for k in zeroed:
                if k < len(p) and not p[k].is_zero():
                    return (stage, k + 1), p[k]
            germ = mirror_chart(germ) if at_infinity else h

    return objective


_DE_CANDIDATES = (
    "c0",
    "lam0",
    "tau0",
    "eps2",
    "delta2",
    "lam1",
    "tau1",
    "eps23",
    "delta3",
    "lam2",
    "tau2",
    "eps3",
    "lam3",
    "tau3",
    "lam4",
    "beta3",
    "sigma1",
    "rho23",
    "sigma2",
    "rho3",
    "sigma3",
)


def _build_de(target: TypeTag, frozen, rng: random.Random):
    builder = _Builder(rng, X3SQ, frozen)
    family, index = target.family, target.index

    def free(name):
        return name not in builder.frozen

    if (family, index) == ("D", 4):
        if free("sigma0"):
            builder.set("sigma0", _draw_nonzero(rng))
        return builder.quartic()

    # pin the multiple root of p1 = x2^2*(rho2*x1 + sigma0*x2) at x2 = 0, a
    # triple root for E (rho2 = 0): the flag frame in which the colored
    # weights (1, a, b) are read
    for name in ("b0", "beta2"):
        if free(name):
            builder.set(name, ZERO)
    if free("rho2"):
        builder.set("rho2", ZERO if family == "E" else _draw_nonzero(rng))
    if free("sigma0"):
        builder.set("sigma0", _draw_nonzero(rng))
    sub = SUB_GERM[target]
    if sub in SUB_GERM:
        # in a deep stratum the first germ has rank 1, c0 = beta3^2/4; nonzero
        # beta3 keeps c0 nonzero, so the witness stays off every colored stratum
        if free("beta3"):
            builder.set("beta3", _draw_nonzero(rng), freeze=False)
    elif sub.family == "A" and free("c0"):
        # a generic D5 or E6 gets its split node directly: the cone
        # x3^2 + beta3*x1*x3 + c0*x1^2 of the first germ has discriminant
        # s^2, and c0 != 0 keeps the witness off every colored stratum
        beta3 = builder.table.beta3
        s = _draw_nonzero(rng)
        while s in (beta3, -beta3):
            s = _draw_nonzero(rng)
        builder.set("c0", (beta3 * beta3 - s * s) / 4)
    # the specialized E7 stratum hosts its D6 point at infinity
    at_infinity = (family, index) == ("E", 7) and bool(frozen)
    objective = _walk_objective(target, first_at_infinity=at_infinity)

    for _ in range(24):
        try:
            defect = objective(builder.table)
        except QuarticVPError:
            break
        if defect is None:
            break
        want = defect[0]

        def scalar_objective(table, want=want):
            got = objective(table)
            if got is None or got[0] > want:
                # the targeted defect is satisfied; a later one may remain
                return None
            if got[0] < want:
                raise GenerationError("an earlier constraint broke")
            return got[1]

        if not builder.solve(scalar_objective, _DE_CANDIDATES):
            break
    # a stalled walk may still have drifted into the right stratum (for
    # example with the distinguished point at infinity); the caller
    # verifies with the real classifier either way
    return builder.quartic()


# -- public API ----------------------------------------------------------------


def generate(spec: GenSpec) -> NormalizedQuartic:
    """A witness quartic with the requested singularity, seeded and exact.

    Raises GenerationError when the stratum resists the retry budget; in
    particular strata whose defining conditions force a non-normal surface
    fail here rather than returning a fake witness.
    """
    frozen = () if spec.mode == "generic" else vp_conditions(spec.mode)

    for attempt in range(MAX_RETRIES):
        rng = random.Random(f"{spec.label()}#{attempt}")
        try:
            if spec.target.family == "A":
                if spec.target.index == 1:
                    q = _build_a1(rng)
                else:
                    q = _build_a(spec.target, frozen, rng)
            else:
                q = _build_de(spec.target, frozen, rng)
            if q is None:
                continue
            tag, _ = classify(q)
            if tag != spec.target:
                continue
            if spec.mode == "generic":
                if not _avoids_colored(q, spec.target):
                    continue
            else:
                _, a, b = tuple(spec.mode)
                if not analyze_weight(q, a, b).vp:
                    continue
            return q
        except QuarticVPError:
            continue
    raise GenerationError(
        f"could not realize {spec.label()} within {MAX_RETRIES} attempts"
    )


def corpus_jsonl(items) -> str:
    """One JSON line per corpus member: the spec and the quartic."""
    lines = []
    for spec, q in items:
        mode = "generic" if spec.mode == "generic" else list(spec.mode)
        lines.append(
            json.dumps(
                {
                    "target": spec.target.to_json(),
                    "mode": mode,
                    "seed": spec.seed,
                    "quartic": q.to_json(),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def corpus(seed: int = 0, generic_seeds: int = 8, special_seeds: int = 3) -> list:
    """The witness catalogue: (spec, witness or None) for every spec attempted.

    Per generator target, in order: the generic stratum at ``generic_seeds``
    seeds from ``seed``, then each colored weight at ``special_seeds`` seeds.
    A spec the generator refuses (GenerationError) maps to None, so callers
    see which strata resisted: the table checks, ``quarticvp selftest`` and
    the acceptance suite all read their witnesses from here.
    """
    out = []
    for target in GENERATOR_TARGETS:
        for mode in ("generic",) + COLORED_WEIGHTS[(target.family, target.index)]:
            for s in range(generic_seeds if mode == "generic" else special_seeds):
                spec = GenSpec(target, mode, seed + s)
                try:
                    out.append((spec, generate(spec)))
                except GenerationError:
                    out.append((spec, None))
    return out


def refused(catalogue) -> list:
    """A failure line per (spec, witness) pair of ``catalogue`` whose witness
    is None, which is how ``corpus`` records a refused spec."""
    return [f"{spec.label()}: generation failed" for spec, q in catalogue if q is None]
