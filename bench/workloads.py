"""The three benchmark workloads: their seeded job streams and output checks.

Every job is one ``quarticvp`` command line with the quartic on stdin.  A
workload hands out jobs one pass at a time; each pass is a stratified set
(one job per stratum or cell), so passes cost about the same and a run's
mix does not depend on where the clock stops.  See README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"
P0 = (1, 0, 0, 0)
A19_VP = [[1, 1, 1], [1, 1, 2]]

# Colored cells left out of the witness pass.  Each is refused, and each
# alone takes 3.4-6.5 s to exhaust its 64 attempts (2-core Xeon VM), as much
# as the other 41 cells together; E8 (1,2,3) stays in as the long refusal.
HEAVY_REFUSALS = {
    ("D", 8, (1, 2, 3)),
    ("D", 9, (1, 2, 3)),
    ("D", 10, (1, 2, 3)),
    ("D", 9, (1, 3, 4)),
}
WITNESS_SEED = 0
# the warm-up job's generator seed: no timed witness job uses it
WITNESS_WARMUP_SEED = 1

# A random frame adds a multiple of row j to row i once for every pair
# (i, j), those below the diagonal first, so it mixes all four coordinates
# and every re-embedded quartic is dense.  With the pairs drawn at random,
# one member's job time varied 2x from frame to frame, and job_tail_ms
# followed it.  The multipliers are in Z[i], none of them zero.
FRAME_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i > j) + tuple(
    (i, j) for i in range(4) for j in range(4) if i < j
)
MULTIPLIERS = ((1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (1, -1))


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    stdin: str
    expect: dict


def cli_type(tag: dict) -> str:
    """The ``--type`` spelling of a tag: A8+ for A>=8."""
    return f"{tag['family']}{tag['index']}{'' if tag['exact'] else '+'}"


def tag_label(tag: dict) -> str:
    return f"{tag['family']}{'' if tag['exact'] else '>='}{tag['index']}"


class Workload:
    name = ""
    allow_refusal = False

    def __init__(self, seed: int):
        self.seed = seed

    def load(self) -> list:
        """Load the inputs; returns lines to report (pool mismatches)."""
        return []

    def pass_jobs(self, k: int) -> list:
        raise NotImplementedError

    def warmup_job(self) -> Job:
        """A job on an input that no timed pass contains."""
        raise NotImplementedError

    def reduce(self, obj):
        """The part of a JSON output that the check needs."""
        return obj

    def verify(self, job: Job, result) -> str | None:
        """None when the output is right, else the reason it is wrong.

        ``result`` is None for a refusal (only where ``allow_refusal``).
        """
        raise NotImplementedError


# -- witness ------------------------------------------------------------------


class Witness(Workload):
    """``generate`` over a fixed catalogue of specs, in seeded order.

    Each job expects the outcome the pool records: a cell realizes at
    WITNESS_SEED exactly when the pool holds its member at that seed.
    """

    name = "witness"
    allow_refusal = True

    def load(self):
        from quarticvp.generator import COLORED_WEIGHTS, GENERATOR_TARGETS

        pool = json.loads(POOL_PATH.read_text())
        assert WITNESS_SEED in pool["seeds"]
        realized = {m["id"] for m in pool["members"] if m["seed"] == WITNESS_SEED}
        self.catalogue = []
        for target in GENERATOR_TARGETS:
            tag = target.to_json()
            self.catalogue.append(self._job(tag, None, WITNESS_SEED, realized))
            for weights in COLORED_WEIGHTS[(target.family, target.index)]:
                if (target.family, target.index, weights) not in HEAVY_REFUSALS:
                    self.catalogue.append(self._job(tag, weights, WITNESS_SEED, realized))
        return []

    @staticmethod
    def _job(tag, weights, seed, realized):
        argv = ["generate", "--type", cli_type(tag)]
        mode = "generic"
        if weights is not None:
            mode = "x".join(map(str, weights))
            argv += ["--specialize", ",".join(map(str, weights))]
        argv += ["--seed", str(seed), "--json"]
        job_id = f"{tag_label(tag)}:{mode}:{seed}"
        return Job(
            id=job_id,
            argv=tuple(argv),
            stdin="",
            expect={"tag": tag, "weights": weights, "refused": job_id not in realized},
        )

    def pass_jobs(self, k):
        jobs = list(self.catalogue)
        random.Random(f"witness:{self.seed}:{k}").shuffle(jobs)
        return jobs

    def warmup_job(self):
        a1 = {"family": "A", "index": 1, "exact": True}
        return self._job(a1, None, WITNESS_WARMUP_SEED, {f"A1:generic:{WITNESS_WARMUP_SEED}"})

    def verify(self, job, result):
        from quarticvp.quartic import NormalizedQuartic
        from quarticvp.singclass import classify
        from quarticvp.vpanalyzer import analyze_weight

        if (result is None) != job.expect["refused"]:
            if result is None:
                return f"refused, but the pool holds a witness at seed {WITNESS_SEED}"
            return f"realized, but the pool records a refusal at seed {WITNESS_SEED}"
        if result is None:
            return None
        q = NormalizedQuartic.from_json(result)
        tag, _ = classify(q)
        if tag.to_json() != job.expect["tag"]:
            return f"witness classifies as {tag.label()}"
        weights = job.expect["weights"]
        if weights is not None and not analyze_weight(q, weights[1], weights[2]).vp:
            return f"witness is not vp at {weights}"
        return None


# -- the frozen pool ------------------------------------------------------------


class PoolWorkload(Workload):
    """A workload over the frozen pool: one member per cell in each pass."""

    def load(self):
        from quarticvp.poly import parse
        from quarticvp.quartic import normalize_at_point
        from quarticvp.singclass import classify

        pool = json.loads(POOL_PATH.read_text())
        self.members, self.warmup = pool["members"], pool["warmup"]
        self.cells = {}
        for m in self.members:
            mode = m["mode"] if isinstance(m["mode"], str) else "x".join(map(str, m["mode"]))
            key = m["id"] if m["target"] is None else f"{tag_label(m['target'])}:{mode}"
            self.cells.setdefault(key, []).append(m)
        lines = []
        for m in self.members:
            tag, _ = classify(normalize_at_point(parse(equation(m["terms"])), P0))
            if tag.to_json() != m["tag"]:
                lines.append(
                    f"pool mismatch: {m['id']} stored {tag_label(m['tag'])}, "
                    f"classifies as {tag.label()}"
                )
        return lines

    def pass_jobs(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        jobs = [self.job(rng.choice(self.cells[key]), k) for key in sorted(self.cells)]
        rng.shuffle(jobs)
        return jobs

    def warmup_job(self):
        return self.job(self.warmup, -1)

    def job(self, member, k) -> Job:
        raise NotImplementedError


class VpScan(PoolWorkload):
    """``vp - --json`` on pool members in their stored normal-form frame."""

    name = "vp_scan"

    def load(self):
        from quarticvp.tables import claimed_vp_table

        self.claimed = claimed_vp_table()
        return super().load()

    def job(self, member, k):
        expect = {"tag": member["tag"], "vp": None, "weight": None}
        if member["target"] is None:
            expect["vp"] = A19_VP
        elif member["mode"] == "generic":
            row = self.claimed.get(tag_label(member["target"]))
            if row is not None:
                expect["vp"] = sorted(row["black"])
        else:
            expect["weight"] = member["mode"]
        return Job(
            id=f"{member['id']}@{k}",
            argv=("vp", "-", "--max-b", "12", "--json"),
            stdin=equation(member["terms"]),
            expect=expect,
        )

    def reduce(self, obj):
        return {
            "type": obj["type"],
            "vp": sorted(v["weights"] for v in obj["verdicts"] if v["vp"]),
        }

    def verify(self, job, result):
        if result["type"] != job.expect["tag"]:
            return f"type {tag_label(result['type'])}, pool says {tag_label(job.expect['tag'])}"
        want = job.expect["vp"]
        if want is not None and result["vp"] != want:
            return f"vp set {result['vp']}, expected {want}"
        weight = job.expect["weight"]
        if weight is not None and weight not in result["vp"]:
            return f"vp set {result['vp']} lacks the colored weight {weight}"
        return None


class ReframeClassify(PoolWorkload):
    """``classify - --point p --json`` on pool members in random frames."""

    name = "reframe_classify"

    def job(self, member, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}:{member['id']}")
        text, point = reframe(member["terms"], rng)
        return Job(
            id=f"{member['id']}@{k}",
            argv=("classify", "-", f"--point={point}", "--json"),
            stdin=text,
            expect={"tag": member["tag"]},
        )

    def reduce(self, obj):
        return {key: obj[key] for key in ("family", "index", "exact")}

    def verify(self, job, result):
        if result != job.expect["tag"]:
            return f"type {tag_label(result)}, pool says {tag_label(job.expect['tag'])}"
        return None


WORKLOADS = {w.name: w for w in (Witness, VpScan, ReframeClassify)}


# -- random frames over Z[i], computed without the package -----------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def random_frame(rng: random.Random):
    """A random M in GL4(Z[i]) with Gaussian-integer inverse N.

    M is a row permutation of a product of elementary matrices, one for each
    pair in FRAME_PAIRS, so N is built alongside by the inverse column
    operations.
    """
    m = [[(int(i == j), 0) for j in range(4)] for i in range(4)]
    n = [row[:] for row in m]
    for i, j in FRAME_PAIRS:
        c = rng.choice(MULTIPLIERS)
        # M <- (I + c e_i e_j^T) M and N <- N (I - c e_i e_j^T)
        for t in range(4):
            cm = _gmul(c, m[j][t])
            m[i][t] = (m[i][t][0] + cm[0], m[i][t][1] + cm[1])
        for r in range(4):
            cn = _gmul(c, n[r][i])
            n[r][j] = (n[r][j][0] - cn[0], n[r][j][1] - cn[1])
    perm = rng.sample(range(4), 4)
    m = [m[perm.index(r)] for r in range(4)]
    n = [[row[perm.index(c)] for c in range(4)] for row in n]
    return m, n


def _poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            re, im = out.get(mono, (0, 0))
            p = _gmul(c1, c2)
            out[mono] = (re + p[0], im + p[1])
    return {m: c for m, c in out.items() if c != (0, 0)}


def _format_coeff(re: Fraction, im: Fraction) -> str:
    """``re + im*i`` in the grammar."""
    if not im:
        return str(re)
    imag = f"{abs(im)}*i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re} {'+' if im > 0 else '-'} {imag}"


def _format_poly(f: dict) -> str:
    """The text of {monomial: (re, im)} with Fraction coefficients."""
    terms = []
    for mono in sorted(f, reverse=True):
        factors = [f"({_format_coeff(*f[mono])})"]
        factors += [f"x{v}^{e}" for v, e in enumerate(mono) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _read_terms(terms) -> dict:
    """A pool member's term list as {monomial: (re, im)}."""
    return {tuple(mono): (Fraction(re), Fraction(im)) for mono, re, im in terms}


def equation(terms) -> str:
    """A pool member's equation as text in the grammar."""
    return _format_poly(_read_terms(terms))


def reframe(terms, rng: random.Random):
    """Re-embed a quartic marked at (1:0:0:0) so the point moves to p = M e0.

    Returns the text of G(y) = F(N y), N = M^-1, and p in the ``--point``
    syntax.  G has at p the singularity F has at (1:0:0:0).  The expansion
    runs on the Z[i] multiple scale*F, and the text divides scale out again,
    so G is a pure change of coordinates of F.
    """
    coeffs = _read_terms(terms)
    scale = lcm(*(c.denominator for re, im in coeffs.values() for c in (re, im)))
    f = {mono: (int(re * scale), int(im * scale)) for mono, (re, im) in coeffs.items()}
    m, n = random_frame(rng)
    units = [tuple(int(v == j) for v in range(4)) for j in range(4)]
    forms = [{units[j]: n[k][j] for j in range(4) if n[k][j] != (0, 0)} for k in range(4)]
    powers = [[{(0, 0, 0, 0): (1, 0)}] for _ in range(4)]
    for k in range(4):
        for _ in range(4):
            powers[k].append(_poly_mul(powers[k][-1], forms[k]))
    g = {}
    for mono, c in f.items():
        part = {(0, 0, 0, 0): c}
        for k, e in enumerate(mono):
            if e:
                part = _poly_mul(part, powers[k][e])
        for mm, cc in part.items():
            re, im = g.get(mm, (0, 0))
            g[mm] = (re + cc[0], im + cc[1])
    g = {mm: cc for mm, cc in g.items() if cc != (0, 0)}
    point = ":".join(_format_coeff(Fraction(m[r][0][0]), Fraction(m[r][0][1])) for r in range(4))
    g = {mm: (Fraction(re, scale), Fraction(im, scale)) for mm, (re, im) in g.items()}
    return _format_poly(g), point
