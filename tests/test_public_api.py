"""The public surface: every name in bcspec.__all__, and the README's Python example."""

import re
from pathlib import Path

import bcspec
from bcspec import Bicomplex, CSubspace, EigenSet, ModifiedCase

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_once():
    assert len(bcspec.__all__) == len(set(bcspec.__all__))
    assert [name for name in bcspec.__all__ if not hasattr(bcspec, name)] == []


def test_unused_api_stays_deleted():
    # Nothing in the package called these; T's arithmetic is on vectors and scalars.
    assert {"operator_add", "operator_neg", "operator_scale", "operator_scale_bc"}.isdisjoint(dir(bcspec))
    assert not hasattr(CSubspace, "gram_defect")
    assert not hasattr(EigenSet, "total_multiplicity")


def test_readme_python_example_runs(ex_op):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    exec("from bcspec import *", namespace)
    namespace.update(op=ex_op, lam=1.0, kappa=Bicomplex(1.0, 2.0))
    for block in blocks:
        exec(block, namespace)
    assert namespace["case"] is ModifiedCase.ONLY_MINUS
