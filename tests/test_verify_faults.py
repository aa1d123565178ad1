"""The fault table: faults injected into the library, and the verify suites that catch them.

Each fault replaces one function or method by monkeypatch for one
run_verify(trials=100) at the default seed, n = 1..6.  A fault verify kills
is a gate: the run must fail in exactly the suites named.  A fault that
survives, that is a run that passes with it in place, is a strict expected
failure, so a suite that starts to catch it fails this file until the fault
moves to KILLED with the suites that kill it.  Each survivor also has a
probe that shows its fault is live: the probe's value changes when the
fault is in place.
"""

import dataclasses
import math

import numpy as np
import pytest

import bcspec
import bcspec.linalg
import bcspec.operators
import bcspec.oracle
import bcspec.spectra
import bcspec.verify
from bcspec.core import DEFAULT_TOL, Bicomplex, IdealClass
from bcspec.linalg import EigenSet, cluster_points, eigenvalues, is_singular_matrix
from bcspec.operators import BicomplexOperator
from bcspec.spectra import (
    EigenspaceSumReport,
    ModifiedCase,
    ModifiedEigenspace,
    SpectrumReport,
    component_spectra,
)
from bcspec.verify import run_verify

TRIALS = 100
MODULES = (bcspec, bcspec.linalg, bcspec.operators, bcspec.spectra, bcspec.verify)


def _replace(owner, name, make):
    """A fault: owner.name becomes make(original), as does every bcspec module's binding of the original."""

    def inject(monkeypatch):
        original = getattr(owner, name)
        faulty = make(original)
        monkeypatch.setattr(owner, name, faulty)
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, faulty)

    return inject


def _eig(change):
    """A fault in numpy's eig as bcspec.linalg.eigenvalues sees it: change(values, vectors) is returned."""
    return _replace(np.linalg, "eig", lambda eig: lambda a: change(*eig(a)))


def _swap_sides(product):
    return product if product is NotImplemented else Bicomplex(product.plus, product.minus)


def _swap_ideals(tag: IdealClass) -> IdealClass:
    return {IdealClass.IN_I1: IdealClass.IN_I2, IdealClass.IN_I2: IdealClass.IN_I1}.get(tag, tag)


def _drop_minus_of_both(space: ModifiedEigenspace) -> ModifiedEigenspace:
    if space.case is not ModifiedCase.BOTH:
        return space
    return dataclasses.replace(space, minus_basis=space.minus_basis[:, :0])


def _all_simple(sets):
    """The EigenSets of eigenvalues with every multiplicity 1, their vectors kept."""
    one = lambda es: dataclasses.replace(es, values=tuple((v, 1) for v, _ in es.values))  # noqa: E731
    return one(sets) if isinstance(sets, EigenSet) else [one(es) for es in sets]


def _shifted_reports(stacked):
    def faulty(ops, cluster_tol=bcspec.linalg.DEFAULT_CLUSTER_TOL):
        reports = stacked(ops, cluster_tol)
        return [SpectrumReport(op, r.upsilon1, r.upsilon2) for op, r in zip(ops, reports[1:] + reports[:1])]

    return faulty


def _rotated_answers(eliminate):
    """Each stacked call answers every matrix with the next one's basis; a single matrix still gets its own."""

    def faulty(a, threshold):
        bases = eliminate(a, threshold)
        return bases[1:] + bases[:1] if isinstance(bases, list) else bases

    return faulty


def _near_at(factor):
    return _replace(EigenSet, "near", lambda near: lambda self, z: near(dataclasses.replace(self, tol=self.tol * factor), z))


def _rank_threshold_times(factor):
    def make(svd):
        def faulty(stack, tol, threshold=None):
            return svd(stack, tol * factor, None if threshold is None else threshold * factor)

        return faulty

    return _replace(bcspec.linalg, "_svd", make)


def _union_at_larger_tol(report: SpectrumReport) -> EigenSet:
    tol = max(report.upsilon1.tol, report.upsilon2.tol)
    clusters = cluster_points(report.upsilon1.values + report.upsilon2.values, tol)
    return EigenSet(tuple((v, m) for v, m, _ in clusters), tol, members=tuple(idx for *_, idx in clusters))


def _always_direct(sum_of):
    def faulty(report, kappa, kappa_prime, tol=DEFAULT_TOL):
        dims = sum_of(report, kappa, kappa_prime, tol)
        return EigenspaceSumReport(dims.dim_first, dims.dim_second, dims.dim_first + dims.dim_second)

    return faulty


#: Fault name: (injection, the suites whose failures kill it).
KILLED = {
    "case e1/e2 swapped": (
        _replace(bcspec.spectra, "_case", lambda case: lambda minus, plus: case(plus, minus)),
        {"containment"},
    ),
    "singular operator asks t1 only": (
        _replace(bcspec.operators, "is_singular_operator", lambda _: lambda op, tol=DEFAULT_TOL: is_singular_matrix(op.t1, tol)),
        {"operator_singularity"},
    ),
    "kernel drops the plus side": (
        _replace(bcspec.operators, "kernel", lambda kernel: lambda op, tol=DEFAULT_TOL: (kernel(op, tol)[0], np.zeros((op.shape[1], 0), complex))),
        {"kernel_image", "operator_singularity"},
    ),
    "product components swapped": (
        _replace(Bicomplex, "__mul__", lambda mul: lambda x, y: _swap_sides(mul(x, y))),
        {"scalar_product_rule"},
    ),
    "classify swaps InI1 and InI2": (
        _replace(Bicomplex, "classify", lambda classify: lambda x, tol=DEFAULT_TOL: _swap_ideals(classify(x, tol))),
        {"scalar_singularity"},
    ),
    "Both space drops its minus basis": (
        _replace(bcspec.spectra, "modified_eigenspace", lambda space: lambda *args, **kw: _drop_minus_of_both(space(*args, **kw))),
        {"eigenspace_structure"},
    ),
    "eig values times 1 + 1e-6": (
        _eig(lambda values, vectors: (values * (1 + 1e-6), vectors)),
        {"shift_singularity", "eigenvalue_criterion", "modified_criterion", "infinite_family",
         "cylinder_structure", "eigenspace_structure", "block_spectrum"},
    ),
    "eig vectors conjugated": (
        _eig(lambda values, vectors: (values, vectors.conj())),
        {"eigenspace_structure"},
    ),
    "stacked reports shifted by one operator": (
        _replace(bcspec.spectra, "stacked_spectra", _shifted_reports),
        {"shift_singularity", "eigenvalue_criterion", "modified_criterion", "infinite_family",
         "cylinder_structure", "eigenspace_structure", "block_spectrum", "similarity_invariance"},
    ),
    "oracle answers rotated by one within each stacked call": (
        _replace(bcspec.oracle, "elimination_nullspace", _rotated_answers),
        {"kernel_image", "operator_singularity", "shift_singularity", "modified_criterion", "eigenspace_structure"},
    ),
    "is_eigenvalue asks Y1 only": (
        _replace(SpectrumReport, "is_eigenvalue", lambda _: lambda self, lam: self.upsilon1.contains(lam)),
        {"eigenvalue_criterion"},
    ),
    "every multiplicity 1": (
        _replace(bcspec.linalg, "eigenvalues", lambda spectra: lambda *args: _all_simple(spectra(*args))),
        {"block_spectrum"},
    ),
    "union replaced by Y1": (
        _replace(SpectrumReport, "eigenvalues_of_T", lambda _: property(lambda self: self.upsilon1)),
        {"block_spectrum"},
    ),
    "max_residual returns 0": (
        _replace(ModifiedEigenspace, "max_residual", lambda _: lambda self, op: 0.0),
        {"eigenspace_structure"},
    ),
}

#: Fault name: (injection, a probe whose value the fault changes, the ROADMAP item whose check is to kill it).
SURVIVORS = {
    "near tol times 1e-2": (_near_at(1e-2), lambda: EigenSet(((0j, 1),), 1.0).contains(0.5), 1),
    "near tol times 1e4": (_near_at(1e4), lambda: EigenSet(((0j, 1),), 1.0).contains(2.0), 1),
    "clustering merges nothing": (
        _replace(bcspec.linalg, "cluster_points", lambda clusters: lambda points, tol_abs: clusters(points, -math.inf)),
        lambda: len(eigenvalues(np.eye(2)).values),
        3,
    ),
    "clustering at 1e3 times its tol": (
        _replace(bcspec.linalg, "cluster_points", lambda clusters: lambda points, tol_abs: clusters(points, tol_abs * 1e3)),
        lambda: len(eigenvalues(np.diag([1.0, 1.0 + 1e-7])).values),
        3,
    ),
    "rank threshold times 1e4": (_rank_threshold_times(1e4), lambda: is_singular_matrix(np.diag([1.0, 1e-7])), 10),
    "rank threshold times 1e-4": (_rank_threshold_times(1e-4), lambda: is_singular_matrix(np.diag([1.0, 1e-11])), 10),
    "union clustered at the larger side tol": (
        _replace(SpectrumReport, "eigenvalues_of_T", lambda _: property(_union_at_larger_tol)),
        lambda: len(component_spectra(BicomplexOperator(np.zeros((2, 2)), np.diag([5e-5, 1e4]))).eigenvalues_of_T.values),
        11,
    ),
    "eigenspace_sum always direct": (
        _replace(bcspec.spectra, "eigenspace_sum", _always_direct),
        lambda: bcspec.eigenspace_sum(
            component_spectra(BicomplexOperator(np.diag([1.0, 0.0]), np.eye(2))), Bicomplex(1.0, 1.0), Bicomplex(1.0, 2.0)
        ).is_direct,
        11,
    ),
}


def _failing(monkeypatch, inject) -> set[str]:
    inject(monkeypatch)
    return {s.name for s in run_verify(trials=TRIALS).suites if not s.passed}


def test_verify_passes_without_a_fault():
    assert run_verify(trials=TRIALS).passed


@pytest.mark.parametrize("name", KILLED)
def test_killed_fault(monkeypatch, name):
    inject, suites = KILLED[name]
    assert _failing(monkeypatch, inject) == suites


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.xfail(reason=f"verify passes with it; ROADMAP item {item}")) for name, (*_, item) in SURVIVORS.items()],
)
def test_surviving_fault(monkeypatch, name):
    assert _failing(monkeypatch, SURVIVORS[name][0])


@pytest.mark.parametrize("name", SURVIVORS)
def test_surviving_fault_is_live(monkeypatch, name):
    inject, probe, _ = SURVIVORS[name]
    clean = probe()
    inject(monkeypatch)
    assert probe() != clean
