"""The names the traced benchmark wraps and requires still exist in bcspec.

perfbench/run.py and perfbench/tracer.py are read with ast, not imported: a
rename or deletion in the package must fail here, before a traced run
reports a missing span.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assignments(path: Path) -> dict[str, ast.expr]:
    tree = ast.parse(path.read_text())
    return {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _names(node: ast.expr) -> set[str]:
    """Every plain string literal under node; f-string pieces are left out."""
    pieces = {id(c) for j in ast.walk(node) if isinstance(j, ast.JoinedStr) for c in ast.walk(j)}
    return {
        c.value
        for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str) and id(c) not in pieces
    }


RUN = _assignments(PERFBENCH / "run.py")
METHODS = ast.literal_eval(_assignments(PERFBENCH / "tracer.py")["METHODS"])
SUITES = ast.literal_eval(RUN["SUITES"])
SPANS = sorted(_names(RUN["FUNCTIONS"]).union(*map(_names, RUN["REQUIRED"].values)))


def test_the_lists_were_read():
    assert "linalg.nullspace" in SPANS and "cli.main" in SPANS
    assert "spectra.max_residual" in METHODS and len(SUITES) == 14


@pytest.mark.parametrize("span", SPANS)
def test_span_target_exists(span):
    if span in METHODS:
        for module, cls, attr in METHODS[span]:
            owner = getattr(importlib.import_module(f"bcspec.{module}"), cls)
            assert inspect.isfunction(vars(owner).get(attr)), f"{module}.{cls}.{attr}"
        return
    module, attr = span.split(".")
    mod = importlib.import_module(f"bcspec.{module}")
    fn = getattr(mod, attr, None)
    # The tracer wraps public functions defined in the module itself.
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, span


def test_every_verify_suite_exists():
    # in order: a trial's replay key holds its suite's index in verify.SUITES
    from bcspec.verify import SUITES as suites

    assert [name for name, _, _ in suites] == list(SUITES)
