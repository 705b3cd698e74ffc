import hashlib
import json
import re
import time
from pathlib import Path

import pytest

from quarticvp import cli, errors, poly, quartic, singclass
from quarticvp.cli import main
from quarticvp.errors import PolyParseError

FIXTURE = Path(__file__).resolve().parents[1] / "src" / "quarticvp" / "data"
A19 = str(FIXTURE / "a19_tangent_cone_form.txt")
A19_ORIGINAL = str(FIXTURE / "a19_original.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture(capsys):
    code, out, _ = run(capsys, "classify", A19)
    assert code == 0
    assert "A>=8" in out


def test_classify_json_is_deterministic(capsys):
    code, out1, _ = run(capsys, "classify", A19, "--json")
    assert code == 0
    code, out2, _ = run(capsys, "classify", A19, "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["family"] == "A" and data["index"] == 8 and data["exact"] is False


def test_vp_fixture(capsys):
    code, out, _ = run(capsys, "vp", A19, "--max-a", "4", "--json")
    assert code == 0
    data = json.loads(out)
    vp = [tuple(v["weights"]) for v in data["verdicts"] if v["vp"]]
    assert sorted(vp) == [(1, 1, 1), (1, 1, 2)]


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", A19, "--weights", "1,1,2")
    assert code == 0
    assert out.splitlines()[0] == "weights (1, 1, 2): volume preserving"


def test_vp_links_only_json(capsys):
    code, out, _ = run(capsys, "vp", A19, "--links-only", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == {"family": "A", "index": 8, "exact": False}
    assert [v["weights"] for v in data["verdicts"]] == [[1, 1, 1], [1, 1, 2]]
    assert all(v["vp"] and v["initiates_link"] for v in data["verdicts"])


def test_check_json_includes_the_traces(capsys):
    code, out, _ = run(capsys, "check", A19, "--json", "--weights", "1,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [1, 2, 3] and data["vp"] is False
    # one stepwise trace per assignment, ending on the assignment's own ray
    assert len(data["traces"]) == len(data["assignments"]) == 6
    for result, trace in zip(data["assignments"], data["traces"]):
        assert trace["weights"] == [1, 2, 3]
        assert trace["assignment"] == result["assignment"]
        assert trace["steps"][0]["ray"] == [1, 1, 1]
        assert trace["steps"][-1]["ray"] == sorted(result["assignment"])
        assert trace["overall_vp"] == result["stepwise_vp"]


# sha256 of stdout, the same in both fixture frames; the key order of
# ``check --json`` is part of the contract
OUTPUT_HASHES = {
    "vp-json": (("vp", "--json"), "cc96a0b22122933d7fe152c6462917ee9a88a51404b61330d689dab34ce882d0"),
    "vp-json-links": (
        ("vp", "--json", "--links-only"),
        "b7c169a02eb341deb13497be44fa985f209d4e1b2b10cad2b5e539bcf75091f1",
    ),
    "check-json-123": (
        ("check", "--json", "--weights", "1,2,3"),
        "46c9dd1899369b236fc131902dfbc238023e5349d1aec0935a5003e3c6439c90",
    ),
    "check-112": (
        ("check", "--weights", "1,1,2"),
        "fcd7b907e3b94e516ef38499928b1e7c18a1c947cda8e827ebd9a72966a2924a",
    ),
}


@pytest.mark.parametrize("fixture", [A19_ORIGINAL, A19], ids=["original", "tangent-cone-form"])
@pytest.mark.parametrize("argv, digest", OUTPUT_HASHES.values(), ids=OUTPUT_HASHES.keys())
def test_a19_outputs_are_pinned_byte_for_byte(capsys, fixture, argv, digest):
    command, *options = argv
    code, out, _ = run(capsys, command, fixture, *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_vp_and_check_json_are_pinned(capsys, tmp_path, witness_corpus):
    """One sha256 over ``vp --json`` and ``check --json`` at four weights, on
    both A19 frames and the seed-0 generic D7, A4 and E7 witnesses: the bytes
    both vp routes emit, which a rewrite of either route must keep."""
    from quarticvp.poly import format_poly

    inputs = [A19_ORIGINAL, A19]
    for label in ("D7", "A4", "E7"):
        (q,) = [
            q
            for spec, q in witness_corpus
            if spec.target.label() == label and spec.mode == "generic" and spec.seed == 0
        ]
        path = tmp_path / f"{label}.txt"
        path.write_text(format_poly(q.full_equation()))
        inputs.append(str(path))
    digest = hashlib.sha256()
    for fixture in inputs:
        runs = [("vp", fixture, "--json")]
        runs += [("check", fixture, "--json", "--weights", w) for w in ("1,1,2", "1,2,3", "1,3,4", "1,3,5")]
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            digest.update(out.encode())
    assert digest.hexdigest() == "7309a20277f615ec91f113f1837e835dc23263ef38faf7992aac788045af9979"


@pytest.mark.parametrize(
    "argv,verdict",
    [
        (("vp", "--max-a", "4"), "volume preserving weights: (1, 1, 1), (1, 1, 2)"),
        (("check", "--weights", "1,1,2"), "weights (1, 1, 2): volume preserving"),
    ],
    ids=["vp", "check"],
)
def test_a19_verdicts_do_not_depend_on_the_input_frame(capsys, argv, verdict):
    # in its original coordinates the A19 point has the tangent cone
    # 16*(x1^2 + x2^2); every command reads the normal-form frame
    command, *options = argv
    for fixture in (A19_ORIGINAL, A19):
        code, out, _ = run(capsys, command, fixture, *options)
        assert code == 0
        assert verdict in out.splitlines()


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("x5 + 1")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text,offset",
    [
        ("(" * 330 + "x1" + ")" * 330, 64),
        ("x0^2*x2*x3 + x1^\u00b2", 16),
        ("\u0663*x1^4", 0),
    ],
    ids=["deep-nesting", "superscript-exponent", "arabic-indic-coefficient"],
)
def test_unreadable_input_exits_2_with_an_offset(capsys, tmp_path, text, offset):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert err.startswith("parse error: ")
    assert f"(at offset {offset})" in err


def test_geometry_error_exit_code(capsys, tmp_path):
    off = tmp_path / "off.txt"
    off.write_text("x0^4 + x1^4")
    code, _, err = run(capsys, "classify", str(off))
    assert code == 3


def test_simple_elliptic_point_is_refused_without_blaming_normality(capsys, tmp_path):
    # both singular points, (1:0:0:0) and (0:0:0:1), are isolated, so the
    # surface is normal; p1 vanishes because the point is simple elliptic
    elliptic = tmp_path / "elliptic.txt"
    elliptic.write_text("x0^2*x3^2 + x1^4 + x2^4")
    code, _, err = run(capsys, "classify", str(elliptic))
    assert code == 3
    assert err.startswith("error: p1 vanishes identically")
    assert "not normal, or not a Du Val point" in err
    assert "contradicting normality" not in err


@pytest.mark.parametrize(
    "argv", [("classify",), ("vp",), ("check", "--weights", "1,1,2")], ids=lambda a: a[0]
)
def test_field_extension_exit_code(capsys, tmp_path, argv):
    # the cone x1^2 + 2*x2^2 splits only over Q(i, sqrt(2))
    hard = tmp_path / "hard.txt"
    hard.write_text("x0^2*(x1^2 + 2*x2^2) + x0*x1^3 + x3^4")
    command, *options = argv
    code, _, err = run(capsys, command, str(hard), *options)
    assert code == 4
    assert err.startswith("field extension required: ")


_ONES, _NINES, _SEVENS = "1" * 5000, "9" * 5000, "7" * 4400
_BIG = "1234567890" * 1000 + "1"  # 10,001 digits
_SUM_PRODUCT = "*".join(["(x0 + x1 + x2 + x3)"] * 40)
_QUARTIC_REFUSAL = "error: input must be a nonzero homogeneous quartic\n"
_PRODUCT_REFUSAL = "error: a product of parenthesized sums of degree above 4 is not read\n"
# input properties exit 0, 2, 3 or 4; numbers past the interpreter's
# 4300-digit conversion limit are input like any other.  ``expected`` is
# the start of stdout on exit 0 and the whole of stderr on a refusal
LONG_NUMBERS = {
    "5000-digit-coefficient": ("classify", f"x0^2*x2*x3 + {_ONES}*x1^4", 0, "singularity type: A3"),
    "5000-digit-coefficient-vp": ("vp", f"x0^2*x2*x3 + {_ONES}*x1^4", 0, "singularity type: A3"),
    "5000-digit-exponent": ("classify", f"x0^2*x2*x3 + x1^{_NINES}", 3, _QUARTIC_REFUSAL),
    "4400-digit-denominator": ("classify", f"x0^2*x2*x3 + 1/{_SEVENS}*x1^4", 0, "singularity type: A3"),
    "10001-digit-complex-fraction": (
        "classify",
        f"x0^2*x2*x3 + ({_BIG}/3 - {_BIG}/{_BIG[:-1]}*i)*x1^4",
        0,
        "singularity type: A3",
    ),
    # a product of sums past degree 4 is refused before it is multiplied
    # out, even where its quintic part would cancel; plain monomials past
    # degree 4 are never multiplied and may cancel
    "40-sum-product": ("classify", _SUM_PRODUCT, 3, _PRODUCT_REFUSAL),
    "cancelling-quintic-sum-product": (
        "classify",
        "x0^2*x2*x3 + x1*(x1^3 + x1^4) - x1^5 + x2^4 + x3^4",
        3,
        _PRODUCT_REFUSAL,
    ),
    "cancelling-quintic-monomials": (
        "classify",
        "x0^5 - x0^5 + x0^2*x2*x3 + x1^4 + x2^4 + x3^4",
        0,
        "singularity type: A3",
    ),
}


@pytest.mark.parametrize("command, text, code, expected", LONG_NUMBERS.values(), ids=LONG_NUMBERS.keys())
def test_numbers_of_any_length_keep_the_exit_contract(capsys, tmp_path, command, text, code, expected):
    path = tmp_path / "long.txt"
    path.write_text(text)
    got, out, err = run(capsys, command, str(path))
    assert got == code, err
    if code == 0:
        assert out.startswith(expected)
    else:
        assert (out, err) == ("", expected)


def test_a_product_of_sums_is_refused_before_it_is_multiplied_out(capsys, tmp_path, monkeypatch):
    products = []
    multiply = poly.Polynomial.__mul__
    monkeypatch.setattr(poly.Polynomial, "__mul__", lambda p, q: products.append(q) or multiply(p, q))
    path = tmp_path / "product.txt"
    path.write_text(_SUM_PRODUCT)
    start = time.perf_counter()
    code, _, err = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (3, _PRODUCT_REFUSAL)
    assert products == []


def test_a_certificate_value_past_the_conversion_limit_reads_back(capsys, tmp_path):
    n = "7" * 3000
    path = tmp_path / "long.txt"
    path.write_text(f"x0^2*x2*x3 + x0*({n}*x1^2*x2 + {n}*x1^2*x3) + x1^4 + x2^4 + x3^4")
    code, out, err = run(capsys, "classify", str(path), "--json")
    assert code == 0, err
    data = json.loads(out)
    assert (data["family"], data["index"], data["exact"]) == ("A", 3, True)
    (value,) = [e["value"] for e in data["certificate"] if e["name"].startswith("c0 - beta2*beta3")]
    assert poly.parse_coeff(value) == 1 - int(n) ** 2


# (exit code, stderr prefix) of every class in errors.py, and of a
# ValueError escaping the engine, which is a bug
EXITS = {
    "PolyParseError": (2, "parse error: "),
    "QuarticVPError": (3, "error: "),
    "GeometryError": (3, "error: "),
    "ReducibleInput": (3, "error: "),
    "NonNormalInput": (3, "error: "),
    "ClassificationError": (3, "error: "),
    "GenerationError": (3, "error: "),
    "FieldExtensionRequired": (4, "field extension required: "),
    "ConsistencyViolation": (5, "consistency violation: "),
    "ValueError": (5, "internal error: "),
}
ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES + [ValueError], ids=lambda cls: cls.__name__)
def test_error_class_exit_code(capsys, monkeypatch, cls):
    message = "an E-type point cannot sit over A3"

    def fail(q):
        raise cls(message, 0) if cls is PolyParseError else cls(message)

    monkeypatch.setattr(cli, "classify", fail)
    exit_code, prefix = EXITS[cls.__name__]
    code, _, err = run(capsys, "classify", A19)
    assert code == exit_code
    assert err.startswith(prefix + message)


# each bad argument is refused before the engine runs
BAD_ARGUMENTS = {
    "weights-not-1ab": (["check", A19, "--weights", "2,3,4"], "expected 1,a,b"),
    "weights-four": (["check", A19, "--weights", "1,2,3,4"], "expected 1,a,b"),
    "weights-not-int": (["check", A19, "--weights", "1,x,3"], "expected 1,a,b"),
    "weights-not-coprime": (["check", A19, "--weights", "1,2,4"], "expected 1,a,b"),
    "type-unknown": (["generate", "--type", "Q5"], "expected one of A1, A2,"),
    "type-not-generated": (["generate", "--type", "D11"], "expected one of A1, A2,"),
    "type-missing": (["generate"], "one of the arguments --type --corpus is required"),
    "specialize-not-special": (
        ["generate", "--type", "A2", "--specialize", "1,1,3"],
        "weights (1, 1, 3) are not a special stratum of A2",
    ),
    "specialize-not-int": (["generate", "--type", "A4", "--specialize", "1,x,3"], "expected 1,a,b"),
    "specialize-with-corpus": (
        ["generate", "--corpus", "--specialize", "1,2,3"],
        "argument --specialize: not allowed with argument --corpus",
    ),
    "out-is-a-file": (["tables", "--out", A19], "expected a directory, but"),
    "input-missing": (["classify", str(FIXTURE / "missing.txt")], "can't open"),
    "max-b-zero": (["vp", A19, "--max-b", "0"], "expected a positive integer"),
    "max-a-zero": (["vp", A19, "--max-a", "0"], "expected a positive integer"),
    "max-b-negative": (["vp", A19, "--max-b", "-3"], "expected a positive integer"),
    # no b past MAX_B = 19 is vp on a quartic, so none is analyzed
    "max-b-past-bound": (["vp", A19, "--max-b", "20"], "expected a positive integer <= 19"),
    "max-a-past-bound": (["vp", A19, "--max-a", "20"], "expected a positive integer <= 19"),
    "weights-past-bound": (["check", A19, "--weights", "1,2,200001"], "and b <= 19"),
    "specialize-past-bound": (["generate", "--type", "A4", "--specialize", "1,1,20"], "and b <= 19"),
    "point-three": (["classify", A19, "--point", "1:0:0"], "expected four coefficients"),
    "point-zero": (["classify", A19, "--point", "0:0:0:0"], "expected four coefficients"),
    "point-not-coeff": (["vp", A19, "--point", "1:x1:0:0"], "expected four coefficients"),
    # integer arguments are ASCII digits: not other Unicode digits (here
    # Arabic-Indic), nor the underscores and spaces int() accepts
    "weights-non-ascii-digits": (["check", A19, "--weights", "\u0662,\u0663"], "expected 1,a,b"),
    "max-b-non-ascii-digits": (["vp", A19, "--max-b", "\u0661\u0662"], "expected a positive integer"),
    "seed-non-ascii-digit": (["generate", "--type", "A4", "--seed", "\u0663"], "expected an integer"),
    "seed-underscore": (["generate", "--type", "A4", "--seed", "1_0"], "expected an integer"),
    "seed-space": (["generate", "--type", "A4", "--seed", " 3"], "expected an integer"),
}


@pytest.mark.parametrize("argv, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_the_largest_weight_bound_still_runs(capsys):
    code, out, _ = run(capsys, "vp", A19, "--max-b", "19")
    assert code == 0
    assert "volume preserving weights: (1, 1, 1), (1, 1, 2)" in out.splitlines()


def test_internal_check_exit_code(capsys, tmp_path, monkeypatch):
    # a broken coordinate change must surface as a bug, not as bad input
    monkeypatch.setattr(quartic, "frame_sending", lambda forms: quartic.mat_identity(4))
    cone = tmp_path / "cone.txt"
    cone.write_text("x0^2*(x1^2 + x2^2) + x0*x1^3 + x3^4")
    code, _, err = run(capsys, "classify", str(cone))
    assert code == 5
    assert "internal normal form check failed" in err


def test_de_chain_disagreeing_with_the_invariants_is_a_bug(capsys, tmp_path, monkeypatch):
    # every D/E type is the closed form confirmed by the blowup chain, D4 too
    monkeypatch.setattr(singclass, "_de_chain", lambda g, cert, depth: singclass.TypeTag("E", 6))
    text = "x0^2*x3^2 + x0*(x1^3 + x2^3) + x1^4 + x2^4"
    with pytest.raises(errors.ConsistencyViolation):
        singclass.classify(quartic.normalize_at_point(poly.parse(text), (1, 0, 0, 0)))
    d4 = tmp_path / "d4.txt"
    d4.write_text(text)
    code, _, err = run(capsys, "classify", str(d4))
    assert code == 5
    assert err.startswith("consistency violation: the invariants of p1 give D4")


def test_point_flag(capsys, tmp_path):
    moved = tmp_path / "moved.txt"
    moved.write_text("x3^2*x1*x2 + x0^3*x1 + x0^4")
    for point in ("0:0:0:1", "0 : 0 : 0 : 2 + i"):  # the same projective point
        code, out, _ = run(capsys, "classify", str(moved), f"--point={point}")
        assert code == 0
        assert "A3" in out


def test_generate_command_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--type", "D5", "--seed", "3")
    assert code == 0
    quartic = tmp_path / "d5.txt"
    quartic.write_text(out)
    code, out, _ = run(capsys, "classify", str(quartic))
    assert code == 0
    assert "D5" in out


def test_generate_corpus(capsys, monkeypatch, witness_corpus):
    from quarticvp import generator

    monkeypatch.setattr(generator, "corpus", lambda seed: witness_corpus)
    code, out, _ = run(capsys, "generate", "--corpus")
    assert code == 0
    realized = [(spec, q) for spec, q in witness_corpus if q is not None]
    assert len(realized) < len(witness_corpus)
    lines = [json.loads(line) for line in out.splitlines()]
    # one line per realized spec, in catalogue order; refused specs are left out
    assert [(d["target"], d["mode"], d["seed"]) for d in lines] == [
        (
            spec.target.to_json(),
            "generic" if spec.mode == "generic" else list(spec.mode),
            spec.seed,
        )
        for spec, _ in realized
    ]
    assert [d["quartic"] for d in lines] == [q.to_json() for _, q in realized]


def test_generate_specialized(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--type", "A4", "--specialize", "1,2,3")
    assert code == 0
    quartic = tmp_path / "a4.txt"
    quartic.write_text(out)
    code, out, _ = run(capsys, "check", str(quartic), "--weights", "1,2,3")
    assert code == 0
    assert "volume preserving" in out and "not volume preserving" not in out


def test_tables_reports_a_refused_generic_witness(capsys, monkeypatch):
    from quarticvp import generator

    def refuse(spec):
        raise errors.GenerationError(f"could not realize {spec.label()}")

    monkeypatch.setattr(generator, "generate", refuse)
    code, out, _ = run(capsys, "tables")
    assert code == 6
    assert "\n  A1:generic:0: generation failed\n" in out


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert re.search(r"^all \d+ checks passed$", out, re.MULTILINE)


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    # the output format and exit code only; test_selftest_quick runs the audit
    from quarticvp import selftest

    results = [("planted check", ["planted"]), ("passing check", [])]
    monkeypatch.setattr(selftest, "run", lambda seed, quick: results)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 5
    assert out == "[FAIL] planted check\n    planted\n[ok] passing check\nFAILED: 1 check(s)\n"
