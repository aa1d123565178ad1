"""The public surface: every name in bcspec.__all__, and the README's Python example."""

import re
from dataclasses import fields
from pathlib import Path

import bcspec
import bcspec.errors
import bcspec.linalg
import bcspec.spectra
import bcspec.verify
from bcspec import Bicomplex, BicomplexVector, EigenSet, ModifiedCase

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_once():
    assert len(bcspec.__all__) == len(set(bcspec.__all__))
    assert [name for name in bcspec.__all__ if not hasattr(bcspec, name)] == []


def test_unused_api_stays_deleted():
    # Nothing in the package called these; T's arithmetic is on vectors and scalars.
    assert {"operator_add", "operator_neg", "operator_scale", "operator_scale_bc"}.isdisjoint(dir(bcspec))
    assert not hasattr(EigenSet, "total_multiplicity")
    # eigenspace_sum decides one rank per side; nothing else took a subspace sum or intersection
    assert {"subspace_sum", "subspace_intersection"}.isdisjoint(dir(bcspec) + dir(bcspec.linalg))
    # results keep no copy of what the caller passed in
    assert {"kappa", "kappa_prime"}.isdisjoint(f.name for f in fields(bcspec.EigenspaceSumReport))
    assert "trials" not in {f.name for f in fields(bcspec.verify.SuiteResult)}
    assert not hasattr(bcspec.verify.VerifyReport, "suite")
    # a subspace is its (n, k) basis array, and e1*u is BicomplexVector(u, zeros_like(u))
    assert not {"from_minus", "from_plus"} & set(dir(BicomplexVector))
    # the containment and family theorems are classify_modified questions; the tolerance is eigenvalues(a).tol
    deleted = {
        "CSubspace",
        "ModifiedEigenvalue",
        "modified_family",
        "ContainmentRecord",
        "contains_idempotent_product",
        "BaseNotEigenvalueError",
        "cluster_tolerance",
    }
    modules = (bcspec, bcspec.spectra, bcspec.errors, bcspec.linalg)
    assert deleted.isdisjoint(set(bcspec.__all__).union(*map(dir, modules)))
    # verify writes its residual bound out; the one-sided flag is `case is not ModifiedCase.BOTH`
    assert not hasattr(bcspec.BicomplexOperator, "scale_norm")
    assert not hasattr(bcspec.spectra.ModifiedEigenspace, "all_eigenvectors_singular")


def test_readme_python_example_runs(ex_op):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    exec("from bcspec import *", namespace)
    namespace.update(op=ex_op, lam=1.0, kappa=Bicomplex(1.0, 2.0))
    for block in blocks:
        exec(block, namespace)
    assert namespace["case"] is ModifiedCase.ONLY_MINUS
