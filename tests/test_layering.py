"""Layering rules of the package, checked on its source with ``ast``.

* Modules import each other at module level, so each file's imports show
  its place in the layering.  Only ``cli.py`` defers imports: it loads the
  generator, the tables and the self-test for the subcommands that use them.
* No module imports another module's underscore name; whatever two
  modules share is public in the module that defines it.
* Only ``singclass`` evaluates the A_n chain quantities, whole or stage by
  stage, so the criteria ladder has one definition.
* Only ``quartic`` factors a tangent cone (``normalize_cone``), and only
  ``blowup`` steps through a toric chain (``toric_walk``) and builds its
  step records (``StepRecord``).
* ``vpanalyzer`` imports nothing from ``singclass``: its callers pass the
  bound on ``a`` that a classified type gives.
* Only ``vpanalyzer.analyze_weight`` refuses non-coprime weights; the
  chain walks to any ray, and the command line's argument parsers refuse
  such weights before the engine runs.
* Only ``quartic`` sums a quartic's A, B and C, once, when it builds the
  ``NormalizedQuartic``; every other reader takes that stored chart from
  ``affine_equation()``.  Only ``vpanalyzer.direct_vp`` dehomogenizes a
  ``full_equation()``: it is the independent vp route, and no third copy
  of the chart appears.
* Only ``singclass`` imports ``a_chain_walk``: the generator leaves every
  A terminal to the classifier instead of walking the chain itself.
* Only ``singclass`` reads a germ's cone slots (``cone_slots``), and
  ``quartic`` states the exponents of the named coefficients in one dict
  (``SLOTS``), so each coefficient layout has one definition.
* Only ``quartic`` and ``vpanalyzer`` read ``SLOTS``: every other module
  asks ``vpanalyzer.vp_conditions`` which named coefficients a weight
  needs to vanish, so the vp rule has one definition.
* ``ConsistencyViolation`` is raised only where a cross-check runs: the
  factorization and normal-form checks of ``quartic``, the two vp routes
  of ``vpanalyzer.analyze_weight`` and the two D/E routes of
  ``singclass.classify_de``.
* Only ``cli`` catches a bug (``ValueError``, ``ConsistencyViolation``, or
  anything as broad as ``Exception``); every other catch site catches
  refusals (``QuarticVPError`` and its subclasses) only.
* Only ``generator`` catches ``GenerationError``: ``generator.corpus`` is
  the one loop that turns a refused spec into a catalogue entry.
* Only ``field`` knows how a coefficient is stored: no other module imports
  ``fractions``, reads a ``.re`` or ``.im`` part, or calls
  ``GaussianRational`` with parts, and only ``poly`` reads a polynomial's
  term dict (``.terms``), so each representation can change in one file.
* The acceptance criteria that ``quarticvp selftest`` also audits call its
  check functions, and criteria 4 and 5 call the row checks that
  ``quarticvp tables`` runs, so each check has one definition.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quarticvp"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
MODULES = sorted(SRC.glob("*.py"))
DEFERRED_IMPORTS_ALLOWED = {"cli.py"}


def _package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "quarticvp"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "quarticvp" for alias in node.names)
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_are_module_level(path):
    if path.name in DEFERRED_IMPORTS_ALLOWED:
        return
    tree = ast.parse(path.read_text())
    deferred = sorted(
        {
            node.lineno
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if _package_import(node)
        }
    )
    assert not deferred, f"{path.name}: function-level package imports at lines {deferred}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    private = [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and _package_import(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def _calls(path, names) -> list:
    return [
        f"{name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in names
    ]


# the chain quantities, whole or one stage at a time
A_CHAIN_STAGES = {"a_chain_quantities", "_zeta_stage", "_alpha_stage", "_theta_stage", "_mu_stage"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_singclass_evaluates_the_a_chain(path):
    """The A_n criteria ladder lives in ``singclass.a_criteria``; other
    modules read the ladder instead of recomputing its quantities."""
    if path.name == "singclass.py":
        return
    calls = _calls(path, A_CHAIN_STAGES)
    assert not calls, f"{path.name} calls {calls}"


# primitives with one calling module: the cone factorizations are read
# through quartic.normalize_cone, the chain steps through blowup.toric_walk
OWNED = {
    "quartic.py": {"factor_rank2", "rank1_square", "frame_sending"},
    "blowup.py": {"step_vp", "step_transform", "StepRecord"},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_normalizer_and_toric_walk_have_one_home(path):
    foreign = set().union(*(names for owner, names in OWNED.items() if owner != path.name))
    calls = _calls(path, foreign)
    assert not calls, f"{path.name} calls {calls}"


QUARTIC_PARTS = {"A", "B", "C"}


def _part_sums(path) -> list:
    """Lines of the ``+`` chains in ``path`` that add two or more of a
    quartic's parts, read as attributes ``.A``, ``.B``, ``.C``."""

    def leaves(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return leaves(node.left) + leaves(node.right)
        return [node]

    tree = ast.parse(path.read_text())
    inner = {
        id(child)
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        for child in (node.left, node.right)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and id(node) not in inner
        and len({leaf.attr for leaf in leaves(node) if isinstance(leaf, ast.Attribute)} & QUARTIC_PARTS) >= 2
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_quartic_sums_a_quartics_parts(path):
    sums = _part_sums(path)
    if path.name == "quartic.py":
        assert len(sums) == 1, f"quartic.py sums A, B, C at lines {sums}"
    else:
        assert not sums, f"{path.name} sums a quartic's parts at lines {sums}"


def _calls_by_function(path) -> dict:
    """The names each function of ``path`` calls; calls outside any
    function are under "<module>"."""
    found = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                found.setdefault(where, set()).add(name)
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_direct_vp_dehomogenizes_a_full_equation(path):
    allowed = {"direct_vp"} if path.name == "vpanalyzer.py" else set()
    both = {
        where
        for where, names in _calls_by_function(path).items()
        if {"dehomogenize", "full_equation"} <= names
    }
    assert both == allowed, f"{path.name} dehomogenizes a full equation in {sorted(both)}"


def _imported_names(node) -> set:
    """Every dotted part an import statement names, module and aliases."""
    module = getattr(node, "module", None) or ""
    return set(module.split(".")).union(*(a.name.split(".") for a in node.names))


def test_vpanalyzer_imports_nothing_from_singclass():
    imports = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "vpanalyzer.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "singclass" in _imported_names(node)
    ]
    assert not imports, f"vpanalyzer.py imports from singclass at lines {imports}"


def _gcd_refusals(path) -> list:
    """(function, line) for every ``raise`` under an ``if`` that tests a gcd."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.If) and _calls_in(child.test, {"gcd"}):
                found.extend(
                    (where, n.lineno)
                    for body in child.body
                    for n in ast.walk(body)
                    if isinstance(n, ast.Raise)
                )
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _calls_in(node, names) -> bool:
    return any(
        isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) in names
        for n in ast.walk(node)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_analyze_weight_refuses_non_coprime_weights(path):
    if path.name == "cli.py":  # argument parsers, before the engine runs
        return
    allowed = {"analyze_weight"} if path.name == "vpanalyzer.py" else set()
    refusals = _gcd_refusals(path)
    stray = [f"{where} (line {line})" for where, line in refusals if where not in allowed]
    assert not stray, f"{path.name} refuses non-coprime weights in {stray}"
    assert allowed <= {where for where, _ in refusals}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_singclass_imports_the_a_chain_walk(path):
    if path.name == "singclass.py":
        return
    imports = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and any(a.name == "a_chain_walk" for a in node.names)
    ]
    assert not imports, f"{path.name} imports a_chain_walk at lines {imports}"


def _int_tuple(node):
    """The value of a tuple literal of int constants, else None."""
    if isinstance(node, ast.Tuple) and all(
        isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts
    ):
        return tuple(e.value for e in node.elts)
    return None


CONE_SLOTS = {(0, 1, 1, 0), (0, 1, 0, 1), (0, 2, 0, 0)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_singclass_reads_the_cone_slots(path):
    if path.name == "singclass.py":
        return
    found = [
        f"{_int_tuple(node)} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if _int_tuple(node) in CONE_SLOTS
    ]
    assert not found, f"{path.name} spells cone slots {found}"


def test_named_coefficient_exponents_have_one_dict():
    layouts = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "quartic.py").read_text()))
        if isinstance(node, ast.Dict)
        and node.keys
        and all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys)
        and all(_int_tuple(v) is not None and len(v.elts) == 3 for v in node.values)
    ]
    assert len(layouts) == 1, f"quartic.py states exponent layouts at lines {layouts}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_quartic_and_vpanalyzer_read_slots(path):
    if path.name in ("quartic.py", "vpanalyzer.py"):
        return
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and any(a.name == "SLOTS" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "SLOTS")
    ]
    assert not reads, f"{path.name} reads SLOTS at lines {reads}"


# the functions that compare two routes or check a result against its input
CROSS_CHECKS = {
    "quartic.py": {"factor_rank2", "normalize_cone"},
    "vpanalyzer.py": {"analyze_weight"},
    "singclass.py": {"classify_de"},
}


def _raisers(path, name) -> list:
    """(function, line) for every ``raise`` of ``name`` in ``path``; a
    raise outside any function is under "<module>"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child.exc)}
                if name in names:
                    found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cross_checks_raise_consistency_violations(path):
    allowed = CROSS_CHECKS.get(path.name, set())
    raised = _raisers(path, "ConsistencyViolation")
    stray = [f"{where} (line {line})" for where, line in raised if where not in allowed]
    assert not stray, f"{path.name} raises ConsistencyViolation outside a cross-check: {stray}"
    assert allowed <= {where for where, _ in raised}


def _caught(path) -> list:
    """(name, line) for every name an ``except`` clause of ``path``
    catches; a bare ``except`` catches "bare except"."""
    caught = []
    for handler in ast.walk(ast.parse(path.read_text())):
        if isinstance(handler, ast.ExceptHandler):
            nodes = ast.walk(handler.type) if handler.type else ()
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in nodes} or {"bare except"}
            caught += [(name, handler.lineno) for name in names if name]
    return caught


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_names_bugs_in_except_clauses(path):
    if path.name == "cli.py":
        return
    bugs = {"ValueError", "ConsistencyViolation", "Exception", "BaseException", "bare except"}
    named = sorted(f"{name} (line {line})" for name, line in _caught(path) if name in bugs)
    assert not named, f"{path.name} catches {named}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_generator_catches_generation_errors(path):
    if path.name == "generator.py":
        return
    named = [line for name, line in _caught(path) if name == "GenerationError"]
    assert not named, f"{path.name} catches GenerationError at lines {named}"


def _representation_reads(path) -> list:
    """Where ``path`` builds or reads a coefficient's parts or a term dict."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "fractions" in _imported_names(node):
            found.append(("fractions import", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in ("re", "im", "terms"):
            found.append((f".{node.attr}", node.lineno))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "GaussianRational"
            and (node.args or node.keywords)
        ):
            found.append(("GaussianRational(...)", node.lineno))
    return found


# the one module that may touch each representation
REPRESENTATION_OWNER = {
    "field.py": {"fractions import", ".re", ".im", "GaussianRational(...)"},
    "poly.py": {".terms"},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_field_knows_numbers_and_only_poly_knows_terms(path):
    allowed = REPRESENTATION_OWNER.get(path.name, set())
    reads = _representation_reads(path)
    stray = [f"{what} (line {line})" for what, line in reads if what not in allowed]
    assert not stray, f"{path.name} reaches past its layer: {stray}"


def test_scan_sees_the_package():
    assert {"blowup.py", "generator.py", "singclass.py", "tables.py"} <= {
        p.name for p in MODULES
    }


def test_acceptance_criteria_read_the_registry():
    """Criteria 1-3 and 6-9 run a ``selftest`` check, and criteria 4 and 5
    the ``tables`` row checks, instead of their own."""
    tests = {
        int(m.group(1)): node
        for node in ast.parse(ACCEPTANCE.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and (m := re.match(r"test_criterion_(\d+)_", node.name))
    }
    checks = {n: ("selftest", None) for n in (1, 2, 3, 6, 7, 8, 9)}
    checks.update({4: ("tables", "check_vp_rows"), 5: ("tables", "check_link_rows")})
    assert set(checks) <= set(tests)
    own = [
        tests[n].name
        for n, (module, name) in sorted(checks.items())
        if not any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and getattr(call.func.value, "id", None) == module
            and name in (None, call.func.attr)
            for call in ast.walk(tests[n])
        )
    ]
    assert not own, f"criteria with their own check body: {own}"
