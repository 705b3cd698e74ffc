"""Command-line interface.

Subcommands: classify, vp, check, generate, tables, selftest.  Input is a
homogeneous quartic in the polynomial grammar, from a file or stdin.
Arguments are checked before the engine runs; a bad one exits 2 with a
usage message.  A package error exits with the code its class carries
(errors.py): 2 parse, 3 any other refusal, 4 field extension, 5
consistency violation.  A ValueError that escapes the engine is a bug and
exits 5 as an internal error.  6 is a table mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .errors import ConsistencyViolation, PolyParseError, QuarticVPError
from .field import ONE, ZERO
from .poly import format_poly, parse, parse_coeff
from .quartic import normalize_at_point
from .singclass import TypeTag, classification_to_json, classify
from .vpanalyzer import DEFAULT_MAX_B, MAX_B, analyze_weight, default_max_a, enumerate_vp, sarkisov_filter

EXIT_TABLES = 6


def _weights(text: str) -> tuple:
    """``1,a,b`` or ``a,b`` (``:`` also separates) as (1, a, b), a <= b <= MAX_B."""
    m = re.fullmatch(r"(?:1[,:])?(\d+)[,:](\d+)", text)
    a, b = sorted(map(int, m.groups())) if m else (0, 0)
    if a < 1 or b > MAX_B or math.gcd(a, b) != 1:
        raise argparse.ArgumentTypeError(
            f"expected 1,a,b with coprime positive integers a and b <= {MAX_B}, not {text!r}"
        )
    return (1, a, b)


def _generator_target(text: str) -> TypeTag:
    """A generator target: ``A4``, ``D7``, ``E8``, or ``A8+`` for A>=8."""
    from .generator import GENERATOR_TARGETS

    forms = {f"{t.family}{t.index}{'' if t.exact else '+'}": t for t in GENERATOR_TARGETS}
    if text.upper() not in forms:
        raise argparse.ArgumentTypeError(f"expected one of {', '.join(forms)}, not {text!r}")
    return forms[text.upper()]


def _point(text: str) -> tuple:
    """``p0:p1:p2:p3``: four Q(i) coefficients, not all zero."""
    try:
        point = tuple(parse_coeff(p) for p in text.split(":"))
    except PolyParseError:
        point = ()
    if len(point) != 4 or not any(point):
        raise argparse.ArgumentTypeError(
            f"expected four coefficients p0:p1:p2:p3, not all zero; got {text!r}"
        )
    return point


def _weight_bound(text: str) -> int:
    """A bound on a weight: no weight past MAX_B is vp, so none is scanned."""
    if not re.fullmatch(r"\d+", text) or not 1 <= int(text) <= MAX_B:
        raise argparse.ArgumentTypeError(f"expected a positive integer <= {MAX_B}, not {text!r}")
    return int(text)


def _out_dir(text: str) -> Path:
    """A directory to write to, created if missing: no file may stand in
    its place or in the place of an ancestor."""
    out = Path(text)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"expected a directory, but {str(existing)!r} is a file")
    return out


def _load_quartic(args):
    with args.input:
        f = parse(args.input.read())
    return normalize_at_point(f, args.point or (ONE, ZERO, ZERO, ZERO))


def cmd_classify(args) -> int:
    q = _load_quartic(args)
    tag, cert = classify(q)
    if args.json:
        print(json.dumps(classification_to_json(tag, cert), indent=2))
    else:
        print(f"singularity type: {tag.label()}")
        for entry in cert.entries:
            step = f"  [step {entry.step}]" if entry.step else ""
            print(f"  {entry.name} = {entry.value}  {entry.verdict}{step}")
    return 0


def cmd_vp(args) -> int:
    q = _load_quartic(args)
    tag, _ = classify(q)
    verdicts = enumerate_vp(q, args.max_a or default_max_a(tag), args.max_b)
    if args.links_only:
        verdicts = sarkisov_filter(verdicts)
    if args.json:
        print(
            json.dumps(
                {
                    "type": tag.to_json(),
                    "verdicts": [v.to_json() for v in verdicts],
                },
                indent=2,
            )
        )
    else:
        print(f"singularity type: {tag.label()}")
        vp = [v for v in verdicts if v.vp]
        print("volume preserving weights:", ", ".join(str(v.weights) for v in vp) or "none")
        if not args.links_only:
            links = [v for v in vp if v.initiates_link]
            print("initiating Sarkisov links:", ", ".join(str(v.weights) for v in links) or "none")
    return 0


def cmd_check(args) -> int:
    q = _load_quartic(args)
    _, a, b = args.weights
    verdict = analyze_weight(q, a, b)
    if args.json:
        data = verdict.to_json()
        data["traces"] = [r.trace_json() for r in verdict.results]
        print(json.dumps(data, indent=2))
    else:
        print(f"weights {verdict.weights}: {'volume preserving' if verdict.vp else 'not volume preserving'}")
        for r in verdict.results:
            steps = ", ".join(f"{s.ray}{'+' if s.vp else '-'}" for s in r.steps)
            print(f"  assignment {r.assignment}: discrepancy {r.discrepancy};  {steps}")
        if verdict.vp:
            print("initiates a Sarkisov link" if verdict.initiates_link else "does not initiate a Sarkisov link")
    return 0


def cmd_generate(args) -> int:
    from .generator import GenSpec, corpus, corpus_jsonl, generate

    if args.corpus:
        if args.specialize:
            args.usage_error("argument --specialize: not allowed with argument --corpus")
        items = [(spec, q) for spec, q in corpus(seed=args.seed) if q is not None]
        sys.stdout.write(corpus_jsonl(items))
        return 0
    try:
        spec = GenSpec(args.type, args.specialize or "generic", args.seed)
    except ValueError as exc:  # the weights are not a special stratum of the type
        args.usage_error(str(exc))
    q = generate(spec)
    if args.json:
        print(json.dumps(q.to_json(), indent=2))
    else:
        print(format_poly(q.full_equation()))
    return 0


def cmd_tables(args) -> int:
    from .tables import claimed_tables, computed_tables, tables_to_json

    computed, problems = computed_tables(args.seed)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "claimed_tables.json").write_text(tables_to_json(claimed_tables()))
        (args.out / "computed_tables.json").write_text(tables_to_json(computed))
    if problems:
        print("table mismatches:")
        for p in problems:
            print(f"  {p}")
        return EXIT_TABLES
    print("all tables reproduced")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run(seed=args.seed, quick=args.quick)
    for label, failures in results:
        print(f"[{'FAIL' if failures else 'ok'}] {label}")
        for failure in failures:
            print(f"    {failure}")
    failed = sum(1 for _, failures in results if failures)
    if failed:
        print(f"FAILED: {failed} check(s)")
        return ConsistencyViolation.exit_code
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quarticvp",
        description=(
            "Classify canonical double points of quartic surfaces and decide "
            "which toric weighted blowups are volume preserving"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "input",
            type=argparse.FileType("r"),
            help="quartic file in the polynomial grammar, or - for stdin",
        )
        p.add_argument(
            "--point", type=_point, help="marked point p0:p1:p2:p3 (default 1:0:0:0)"
        )
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("classify", help="ADE type of the marked double point")
    add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("vp", help="enumerate volume-preserving weight triples")
    add_input(p)
    p.add_argument("--max-a", type=_weight_bound, default=None)
    p.add_argument("--max-b", type=_weight_bound, default=DEFAULT_MAX_B)
    p.add_argument("--links-only", action="store_true")
    p.set_defaults(func=cmd_vp)

    p = sub.add_parser("check", help="analyze a single weight triple")
    add_input(p)
    p.add_argument("--weights", required=True, type=_weights, help="e.g. 1,2,3")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit a witness quartic")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--type", type=_generator_target, help="e.g. A4, D7, E8, A8+ for A>=8")
    what.add_argument("--corpus", action="store_true", help="emit the whole corpus as JSON lines")
    p.add_argument("--specialize", type=_weights, help="weight triple, e.g. 1,2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generate, usage_error=p.error)

    p = sub.add_parser("tables", help="recompute the result tables and compare")
    p.add_argument("--out", type=_out_dir, help="directory for the table files")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "selftest", help="acceptance criteria 1-3 and 6-9 on a seeded sample"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuarticVPError, ConsistencyViolation) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:  # no refusal raises one, so it is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return ConsistencyViolation.exit_code


if __name__ == "__main__":
    sys.exit(main())
