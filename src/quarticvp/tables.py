"""Machine-readable result and condition tables, claimed and computed.

The *claimed* tables transcribe the classification results this package
reproduces: the volume-preserving weights per singularity type (with the
non-generic entries marked), the link-initiating subsets, and the per-ray
coefficient conditions.  The *computed* tables are rebuilt from the
witnesses of ``generator.corpus`` by running the analyzers.  The two row
checks, ``check_vp_rows`` and ``check_link_rows``, report every result-table
cell where computation disagrees with the claim; ``quarticvp tables`` runs
them on one seed's witnesses and acceptance criteria 4 and 5 on three.
"""

from __future__ import annotations

import json

from .blowup import run_toric_description
from .errors import QuarticVPError, ReducibleInput
from .generator import COLORED_WEIGHTS, GENERATOR_TARGETS, conforming_instance, corpus, refused
from .singclass import TypeTag
from .vpanalyzer import default_max_a, enumerate_vp, sarkisov_filter, vp_set

BLACK_WEIGHTS = {
    ("A", 1): ((1, 1, 1),),
}

RESULT_ROWS = tuple(t for t in GENERATOR_TARGETS if t.exact)


def claimed_vp_table() -> dict:
    """Volume-preserving weights per type; colored = non-generic entries."""
    table = {}
    for tag in RESULT_ROWS:
        key = (tag.family, tag.index)
        black = BLACK_WEIGHTS.get(key, ((1, 1, 1), (1, 1, 2)))
        table[tag.label()] = {
            "black": [list(w) for w in black],
            "colored": [list(w) for w in COLORED_WEIGHTS[key]],
        }
    return table

# link-initiating vp weights; rows follow the coarse classification used
# by the Sarkisov filter (A>=6, D>=5 collapse)
LINK_ROWS = (
    ("A1", (TypeTag("A", 1),), ((1, 1, 1),)),
    ("A2", (TypeTag("A", 2),), ((1, 1, 1), (1, 1, 2))),
    ("A3", (TypeTag("A", 3),), ((1, 1, 1), (1, 1, 2))),
    ("A4", (TypeTag("A", 4),), ((1, 1, 1), (1, 1, 2), (1, 2, 3))),
    ("A5", (TypeTag("A", 5),), ((1, 1, 1), (1, 1, 2), (1, 2, 3))),
    (
        "A>=6",
        (TypeTag("A", 6), TypeTag("A", 7), TypeTag("A", 8, exact=False)),
        ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 5)),
    ),
    ("D4", (TypeTag("D", 4),), ((1, 1, 1), (1, 1, 2))),
    (
        "D>=5",
        tuple(TypeTag("D", n) for n in range(5, 11)),
        ((1, 1, 1), (1, 1, 2), (1, 2, 3)),
    ),
    ("E6", (TypeTag("E", 6),), ((1, 1, 1), (1, 1, 2), (1, 2, 3))),
    ("E7", (TypeTag("E", 7),), ((1, 1, 1), (1, 1, 2), (1, 2, 3))),
    ("E8", (TypeTag("E", 8),), ((1, 1, 1), (1, 1, 2), (1, 2, 3))),
)


def claimed_link_table() -> dict:
    return {row: [list(w) for w in weights] for row, _, weights in LINK_ROWS}


# per-ray volume-preserving conditions (Tables 5 and 6): names that must
# vanish, plus side conditions that must NOT vanish (on pain of a
# reducibility contradiction).  Up to each ray, the names that vanish are
# vpanalyzer.vp_conditions(ray); the test suite holds the two to each other.
CONDITIONS_A = {
    (1, 1, 1): ((), ()),
    (1, 1, 2): ((), ()),
    (1, 1, 3): (("b0", "beta2", "rho2", "sigma0"), ()),
    (1, 1, 4): (("c0", "delta2", "eps2", "tau0", "lam0"), ()),
    (1, 2, 2): (("b0",), ()),
    (1, 2, 3): (("beta2", "c0"), ()),
    (1, 2, 4): (("rho2", "delta2"), ()),
    (1, 2, 5): (("sigma0", "eps2"), ()),
    (1, 3, 3): (("c0", "beta2", "beta3"), ()),
    (1, 3, 4): (("delta2",), ()),
    (1, 3, 5): (("rho2",), ()),
}

CONDITIONS_DE = {
    (1, 1, 1): ((), ()),
    (1, 1, 2): ((), ()),
    (1, 1, 3): (("b0", "beta2", "rho2", "sigma0"), ()),
    (1, 2, 2): (("b0",), ()),
    (1, 2, 3): (("beta2", "c0"), ()),
    (1, 2, 4): (("rho2", "delta2"), ("beta3",)),
    (1, 2, 5): (("sigma0", "eps2"), ()),
    (1, 3, 3): (("c0", "beta2", "beta3"), ()),
    (1, 3, 4): (("delta2",), ()),
    (1, 3, 5): (("rho2",), ("delta3",)),
    (1, 3, 6): (("eps2",), ()),
    (1, 3, 7): (("sigma0",), ()),
    (1, 4, 4): (("delta2", "delta3"), ()),
    (1, 4, 5): ((), ()),
    (1, 4, 6): (("rho2",), ()),
}


def prior_conditions(ray, table) -> tuple:
    """The side conditions of all earlier rays in the chain to ``ray``."""
    _, c, d = ray
    earlier = [(1, i, i) for i in range(1, c + 1)] + [(1, c, j) for j in range(c + 1, d)]
    return tuple(dict.fromkeys(n for r in earlier for n in table.get(r, ((), ()))[1]))


# rays whose own conditions make the exceptional divisor divide the strict
# transform (x1 | f_i): meeting them contradicts irreducibility, so the
# conforming step can never be genuinely volume preserving
DEGENERATE_DE_RAYS = {(1, 1, 3), (1, 4, 6)}


def ray_step_verdict(q, ray):
    """The vp verdict of the single step inserting ``ray``; the earlier
    steps are walked without judgement."""
    return run_toric_description(q, ray)[-1]


# -- computed tables and the row checks --------------------------------------------


def row_verdicts(catalogue) -> dict:
    """The vp verdicts the row checks read, from a ``generator.corpus``
    catalogue, keyed by (target, mode) as lists of (spec, verdicts) in seed
    order: every generic spec, and each colored cell's specs up to its first
    realized one.  A refused spec has None in place of its verdicts."""
    rows = {}
    for spec, q in catalogue:
        entries = rows.setdefault((spec.target, spec.mode), [])
        if spec.mode == "generic" or _first(entries) is None:
            entries.append((spec, None if q is None else enumerate_vp(q, default_max_a(spec.target))))
    return rows


def _first(entries):
    """The verdicts of the first realized witness among ``entries``, or None."""
    return next((verdicts for _, verdicts in entries if verdicts is not None), None)


def compute_vp_table(rows) -> dict:
    """The vp-weight table of the witnesses: the first generic witness's
    whole vp set, and each colored cell as realized by its first realized
    witness or unrealizable."""
    table = {}
    for tag in RESULT_ROWS:
        colored = COLORED_WEIGHTS[(tag.family, tag.index)]
        realized = [w for w in colored if w in vp_set(_first(rows.get((tag, w), ())) or ())]
        table[tag.label()] = {
            "black": [list(w) for w in sorted(vp_set(_first(rows[(tag, "generic")]) or ()))],
            "colored": [list(w) for w in realized],
            "unrealizable": [list(w) for w in colored if w not in realized],
        }
    return table


def compute_link_table(rows) -> dict:
    """Each link row's Sarkisov-filtered union over the first realized
    witness per (tag, mode)."""
    table = {}
    for row, tags, _ in LINK_ROWS:
        weights = set()
        for tag in tags:
            for mode in ("generic",) + COLORED_WEIGHTS[(tag.family, tag.index)]:
                verdicts = _first(rows.get((tag, mode), ())) or ()
                weights.update(v.weights for v in sarkisov_filter(verdicts))
        table[row] = [list(w) for w in sorted(weights)]
    return table


def check_vp_rows(rows) -> list:
    """Every generic witness's vp set is its row's black set, and every
    colored cell is realized by its first realized witness."""
    claimed, computed = claimed_vp_table(), compute_vp_table(rows)
    problems = []
    for tag in RESULT_ROWS:
        row = tag.label()
        want = sorted(map(tuple, claimed[row]["black"]))
        generic = rows[(tag, "generic")]
        problems += refused(generic)
        for spec, verdicts in generic:
            if verdicts is not None and (have := sorted(vp_set(verdicts))) != want:
                problems.append(f"{row} seed {spec.seed}: generic vp set {have} != {want}")
        for w in computed[row]["unrealizable"]:
            problems.append(f"{row}: colored weight {tuple(w)} not realizable")
    return problems


def check_link_rows(rows) -> list:
    """Every link row is the Sarkisov-filtered union over its witnesses."""
    computed = compute_link_table(rows)
    return [
        f"links {row}: {computed[row]} != {want}"
        for row, want in claimed_link_table().items()
        if computed[row] != sorted(want)
    ]


def _toggle_check(family: str, ray, conditions, side, seed: int) -> dict:
    """One condition-table row: conforming instances are vp, single
    toggles are not.  ``side`` names stay nonzero on both.

    Rays in DEGENERATE_DE_RAYS carry the reducibility marker
    ("x1 divides the strict transform"): meeting their conditions makes
    the walk to the ray raise ReducibleInput instead of being vp.
    """
    degenerate = family != "A" and tuple(ray) in DEGENERATE_DE_RAYS
    outcome = {
        "ray": list(ray),
        "vp_when_met": True,
        "toggles_flip": True,
        "degenerate": degenerate,
        "note": "",
    }
    conforming = conforming_instance(family, ray, seed, side)
    if degenerate:
        try:
            run_toric_description(conforming, ray)
            outcome["vp_when_met"] = False
            outcome["note"] = "no reducibility contradiction observed"
        except ReducibleInput:
            pass
    elif not ray_step_verdict(conforming, ray).vp:
        outcome["vp_when_met"] = False
    for name in conditions:
        try:
            toggled = conforming_instance(family, ray, seed, side, toggle=name)
            if ray_step_verdict(toggled, ray).vp:
                outcome["toggles_flip"] = False
                outcome["note"] = f"toggling {name} left the step vp"
        except QuarticVPError as exc:
            outcome["note"] = f"toggling {name}: {type(exc).__name__}"
    return outcome


def compute_condition_table(family: str, seed: int = 0) -> dict:
    table = CONDITIONS_A if family == "A" else CONDITIONS_DE
    out = {}
    for ray, (conditions, side) in table.items():
        side = prior_conditions(ray, table) + side
        out["x".join(map(str, ray))] = _toggle_check(family, ray, conditions, side, seed)
    return out


def check_condition_rows(label: str, outcomes: dict) -> list:
    """The failures of one computed condition table, each led by ``label``."""
    problems = []
    for ray, outcome in outcomes.items():
        if not outcome["vp_when_met"]:
            problems.append(f"{label} {ray}: conforming instance was not vp")
        if not outcome["toggles_flip"]:
            problems.append(f"{label} {ray}: {outcome['note']}")
    return problems


def claimed_tables() -> dict:
    return {
        "vp_weights": claimed_vp_table(),
        "links": claimed_link_table(),
        "conditions_a": {
            "x".join(map(str, ray)): {"zero": list(c), "nonzero": list(s)}
            for ray, (c, s) in CONDITIONS_A.items()
        },
        "conditions_de": {
            "x".join(map(str, ray)): {
                "zero": list(c),
                "nonzero": list(s),
                "degenerate": ray in DEGENERATE_DE_RAYS,
            }
            for ray, (c, s) in CONDITIONS_DE.items()
        },
    }


def computed_tables(seed: int = 0) -> tuple:
    """The tables rebuilt from the witnesses of ``corpus(seed, 1, 1)``, and
    every disagreement with the claimed tables as a readable line."""
    rows = row_verdicts(corpus(seed, 1, 1))
    computed = {
        "vp_weights": compute_vp_table(rows),
        "links": compute_link_table(rows),
        "conditions_a": compute_condition_table("A", seed),
        "conditions_de": compute_condition_table("DE", seed),
    }
    problems = check_vp_rows(rows) + check_link_rows(rows)
    for key in ("conditions_a", "conditions_de"):
        problems += check_condition_rows(key, computed[key])
    return computed, problems


def tables_to_json(tables: dict) -> str:
    return json.dumps(tables, indent=2, sort_keys=True)
