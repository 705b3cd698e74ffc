"""What the benchmark under ``bench/`` needs from the package, read with ``ast``.

``bench/tracer.py`` times the functions its ``WRAPPED`` table names, and
the bench scripts import names from the package.  A rename under ``src/``
that drops one of them would otherwise show only in ``bench/smoke.py``,
which runs for minutes: a wrapped function that no longer exists loses its
per-layer metric.  These checks only read ``bench/``; they run none of it.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _wrapped():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py has no WRAPPED table")


def _package_imports():
    """(file, module, name) of every ``from quarticvp... import name`` in
    ``bench/*.py``, and (file, module, None) of every ``import quarticvp...``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "quarticvp":
                    found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "quarticvp"
                ]
    return found


WRAPPED = _wrapped()
IMPORTS = _package_imports()


def test_the_bench_reads_the_package():
    assert len(WRAPPED) >= 10
    assert sum(name is not None for _, _, name in IMPORTS) >= 10


@pytest.mark.parametrize("module,function,span", WRAPPED, ids=[span for _, _, span in WRAPPED])
def test_every_wrapped_function_exists(module, function, span):
    target = getattr(importlib.import_module(f"quarticvp.{module}"), function, None)
    assert callable(target), f"{span}: quarticvp.{module}.{function} is gone"


@pytest.mark.parametrize(
    "path,module,name", IMPORTS, ids=[f"{p}:{m}.{n}" if n else f"{p}:{m}" for p, m, n in IMPORTS]
)
def test_every_bench_import_resolves(path, module, name):
    package = importlib.import_module(module)
    if name is None or hasattr(package, name):
        return
    # ``from quarticvp import fixtures`` names a submodule
    importlib.import_module(f"{module}.{name}")
