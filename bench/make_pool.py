"""Write the frozen input pool used by the vp_scan and reframe_classify workloads.

Run once from the repository root:

    python3 bench/make_pool.py

It calls ``generate`` for the generic spec of every generator target and for
every colored cell, at the fixed seeds POOL_SEEDS, keeps each witness that is
realized, and adds the A19 fixture.  Each member stores its spec, the tag the
classifier gave it when the pool was written, and the terms of its full
equation in the stored normal-form frame (marked point (1:0:0:0)); the
benchmark writes the equation text from them.  Refused cells are left out:
they have no witness to scan.  So the seed-0 members are also the record of
which cells ``generate`` realizes at seed 0, which the witness workload
checks.  One more witness, the A1 generic one at WARMUP_SEED, is stored apart
as the warm-up input: no timed job runs on it.

The pool is frozen so that generator changes cannot shift the two workloads
that read it, and so that generation cost stays out of their set-up time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from quarticvp import fixtures  # noqa: E402
from quarticvp.errors import GenerationError  # noqa: E402
from quarticvp.generator import COLORED_WEIGHTS, GENERATOR_TARGETS, GenSpec, generate  # noqa: E402
from quarticvp.quartic import normalize_at_point  # noqa: E402
from quarticvp.singclass import classify  # noqa: E402

POOL_SEEDS = (0, 1, 2)
WARMUP_SEED = 3
POOL_PATH = HERE / "pool.json"


def member(spec_id, target, mode, seed, f):
    q = normalize_at_point(f, (1, 0, 0, 0))
    tag, _ = classify(q)
    return {
        "id": spec_id,
        "target": target,
        "mode": mode,
        "seed": seed,
        "tag": tag.to_json(),
        "terms": [[list(mono), str(c.re), str(c.im)] for mono, c in sorted(f.terms.items())],
    }


def dump(pool: dict) -> str:
    """The pool as JSON with one member per line."""
    compact = lambda obj: json.dumps(obj, separators=(",", ":"))  # noqa: E731
    members = ",\n".join(compact(m) for m in pool["members"])
    return (f'{{"seeds":{compact(pool["seeds"])},\n"warmup":{compact(pool["warmup"])},\n'
            f'"members":[\n{members}\n]}}\n')


def main() -> int:
    members = []
    for target in GENERATOR_TARGETS:
        modes = ["generic"] + [list(w) for w in COLORED_WEIGHTS[(target.family, target.index)]]
        for mode in modes:
            for seed in POOL_SEEDS:
                spec = GenSpec(target, mode if mode == "generic" else tuple(mode), seed)
                try:
                    q = generate(spec)
                except GenerationError:
                    continue
                members.append(
                    member(spec.label(), target.to_json(), mode, seed, q.full_equation())
                )
                print(f"{spec.label()}: {members[-1]['tag']}", file=sys.stderr)
    members.append(member("A19", None, "fixture", None, fixtures.a19_tangent_cone_form()))
    a1 = GENERATOR_TARGETS[0]
    spec = GenSpec(a1, "generic", WARMUP_SEED)
    warmup = member(spec.label(), a1.to_json(), "generic", WARMUP_SEED,
                    generate(spec).full_equation())
    POOL_PATH.write_text(dump({"seeds": list(POOL_SEEDS), "warmup": warmup, "members": members}))
    print(f"wrote {len(members)} members to {POOL_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
