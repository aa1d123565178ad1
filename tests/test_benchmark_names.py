"""The names the traced benchmark wraps and requires still exist in bcspec, and its runs reach them.

perfbench/run.py and perfbench/tracer.py are read with ast, not imported: a
rename or deletion in the package must fail here, before a traced run
reports a missing span.  A moved call fails the same way: tiny runs of
perfbench/traced_cli.py must record every span their workload requires.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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
REQUIRED = {ast.literal_eval(k): _names(v) for k, v in zip(RUN["REQUIRED"].keys, RUN["REQUIRED"].values)}
REQUIRED["verify-small"] |= {f"verify.suite.{s}" for s in SUITES}  # run.py names these by f-string


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


EX = str(ROOT / "tests" / "golden" / "inputs" / "worked_example.json")
#: One tiny op per command of each workload; between them they must reach every required span.
TINY_OPS = {
    "query-mix": [
        ["modified", "--input", EX, "--kappa", '{"idem":[1,0,2,0]}', "--format", "text"],
        ["eigenspace", "--input", EX, "--lam", "[1,0]"],
        ["decompose", "--input", '{"idem":[1,0,0,0]}'],
        ["decompose", "--input", EX, "--format", "text"],
        ["explore-sum", "--input", EX, "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[1,0,3,0]}'],
    ],
    "spectrum-large": [["spectrum", "--input", EX]],
    "verify-small": [["verify", "--trials", "1"]],
}


def _recorded(argv: list[str], span_file: Path) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(span_file), "0", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(span_file, allow_pickle=False) as trace:
        names = [str(s) for s in trace["names"]]
        return {names[i] for i in np.unique(trace["name"])}


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_tiny_runs_record_every_required_span(workload, tmp_path):
    assert "cli.main" in REQUIRED[workload]
    recorded = set().union(*(_recorded(argv, tmp_path / f"{k}.npz") for k, argv in enumerate(TINY_OPS[workload])))
    assert sorted(REQUIRED[workload] - recorded) == []
