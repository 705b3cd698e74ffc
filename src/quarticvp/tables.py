"""Machine-readable result and condition tables, claimed and computed.

The *claimed* tables transcribe the classification results this package
reproduces: the volume-preserving weights per singularity type (with the
non-generic entries marked), the link-initiating subsets, and the per-ray
coefficient conditions.  The *computed* tables are rebuilt from scratch by
generating witnesses and running the analyzers; ``diff_tables`` reports
every cell where computation disagrees with the claim.
"""

from __future__ import annotations

import json
from itertools import islice

from .blowup import toric_walk
from .errors import GenerationError, QuarticVPError, ReducibleInput

# the per-ray condition tables and their helpers live with the generator;
# they are re-exported here next to the claimed tables
from .generator import (
    COLORED_WEIGHTS,
    CONDITIONS_A,
    CONDITIONS_DE,
    GENERATOR_TARGETS,
    GenSpec,
    conforming_instance,
    generate,
    prior_conditions,
)
from .singclass import TypeTag
from .vpanalyzer import enumerate_vp, sarkisov_filter, vp_set

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


# rays whose own conditions make the exceptional divisor divide the strict
# transform (x1 | f_i): meeting them contradicts irreducibility, so the
# conforming step can never be genuinely volume preserving
DEGENERATE_DE_RAYS = {(1, 1, 3), (1, 4, 6)}


def ray_walk(q, ray) -> list:
    """The steps of the toric walk up to and including ``ray`` = (1, c, d)."""
    _, c, d = ray
    return list(islice(toric_walk(q.affine_equation(), c), d))


def ray_step_verdict(q, ray):
    """The vp verdict of the single step inserting ``ray``; the earlier
    steps are walked without judgement."""
    return ray_walk(q, ray)[-1]


# -- computed tables ---------------------------------------------------------------


def _row_witnesses(tag: TypeTag, seed: int) -> dict:
    """The vp verdicts of each witness of one row, keyed by generator mode.

    A colored cell the generator refuses maps to None; a refused generic
    witness raises GenerationError, as the row has no black set without it.
    """
    cells = {"generic": enumerate_vp(generate(GenSpec(tag, "generic", seed)), tag=tag)}
    for weights in COLORED_WEIGHTS[(tag.family, tag.index)]:
        try:
            q = generate(GenSpec(tag, weights, seed))
        except GenerationError:
            cells[weights] = None
            continue
        cells[weights] = enumerate_vp(q, tag=tag)
    return cells


def compute_vp_table(witnesses: dict) -> dict:
    """Rebuild the vp-weight table from the generated witnesses.

    Black entries come from generic witnesses (their whole vp set is
    recorded); a colored entry is listed only when a specialized witness
    realizes it, so unrealizable claims show up as missing cells.
    """
    table = {}
    for tag in RESULT_ROWS:
        cells = witnesses[tag]
        row = {
            "black": [list(w) for w in sorted(vp_set(cells["generic"]))],
            "colored": [],
            "unrealizable": [],
        }
        for weights in COLORED_WEIGHTS[(tag.family, tag.index)]:
            verdicts = cells[weights]
            realized = verdicts is not None and weights in vp_set(verdicts)
            (row["colored"] if realized else row["unrealizable"]).append(list(weights))
        table[tag.label()] = row
    return table


def compute_link_table(witnesses: dict) -> dict:
    """Rebuild the link table by filtering the witnesses' vp sets per row."""
    table = {}
    for row, tags, _ in LINK_ROWS:
        weights = set()
        for tag in tags:
            for verdicts in witnesses[tag].values():
                if verdicts is not None:
                    weights.update(v.weights for v in sarkisov_filter(verdicts))
        table[row] = [list(w) for w in sorted(weights)]
    return table


def _toggle_check(family: str, ray, conditions, seed: int) -> dict:
    """One condition-table row: conforming instances are vp, single
    toggles are not.

    Rays in DEGENERATE_DE_RAYS carry the reducibility marker
    ("x1 divides the strict transform"): meeting their conditions makes
    the whole trace raise ReducibleInput instead of being vp.
    """
    degenerate = family != "A" and tuple(ray) in DEGENERATE_DE_RAYS
    outcome = {
        "ray": list(ray),
        "vp_when_met": True,
        "toggles_flip": True,
        "degenerate": degenerate,
        "note": "",
    }
    conforming = conforming_instance(family, ray, seed)
    if degenerate:
        try:
            ray_walk(conforming, ray)
            outcome["vp_when_met"] = False
            outcome["note"] = "no reducibility contradiction observed"
        except ReducibleInput:
            pass
    elif not ray_step_verdict(conforming, ray).vp:
        outcome["vp_when_met"] = False
    for name in conditions:
        try:
            toggled = conforming_instance(family, ray, seed, toggle=name)
            if ray_step_verdict(toggled, ray).vp:
                outcome["toggles_flip"] = False
                outcome["note"] = f"toggling {name} left the step vp"
        except QuarticVPError as exc:
            outcome["note"] = f"toggling {name}: {type(exc).__name__}"
    return outcome


def compute_condition_table(family: str, seed: int = 0) -> dict:
    table = CONDITIONS_A if family == "A" else CONDITIONS_DE
    out = {}
    for ray, (conditions, _) in table.items():
        out["x".join(map(str, ray))] = _toggle_check(family, ray, conditions, seed)
    return out


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


def computed_tables(seed: int = 0) -> dict:
    witnesses = {tag: _row_witnesses(tag, seed) for tag in GENERATOR_TARGETS}
    return {
        "vp_weights": compute_vp_table(witnesses),
        "links": compute_link_table(witnesses),
        "conditions_a": compute_condition_table("A", seed),
        "conditions_de": compute_condition_table("DE", seed),
    }


def diff_tables(claimed: dict, computed: dict) -> list:
    """Human-readable list of every disagreement between the two."""
    problems = []
    for row, claim in claimed["vp_weights"].items():
        got = computed["vp_weights"][row]
        want_black = sorted(map(tuple, claim["black"]))
        have_black = sorted(map(tuple, got["black"]))
        if have_black != want_black:
            problems.append(f"{row}: generic vp set {have_black} != {want_black}")
        missing = [tuple(w) for w in claim["colored"] if list(w) not in got["colored"]]
        for w in missing:
            problems.append(f"{row}: colored weight {w} not realizable")
    for row, want in claimed["links"].items():
        have = computed["links"][row]
        if sorted(map(tuple, have)) != sorted(map(tuple, want)):
            problems.append(f"links {row}: {have} != {want}")
    for key in ("conditions_a", "conditions_de"):
        for ray, outcome in computed[key].items():
            if not outcome["vp_when_met"]:
                problems.append(f"{key} {ray}: conforming instance was not vp")
            if not outcome["toggles_flip"]:
                problems.append(f"{key} {ray}: {outcome['note']}")
    return problems


def tables_to_json(tables: dict) -> str:
    return json.dumps(tables, indent=2, sort_keys=True)
