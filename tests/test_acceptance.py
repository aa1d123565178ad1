"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is self-contained and seeded throughout.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bcspec import (
    Bicomplex,
    BicomplexOperator,
    BicomplexVector,
    VectorClass,
    classify_vector,
    component_spectra,
    eigenspace_sum,
    modified_eigenspace,
)
from bcspec.linalg import eigenvalues, frobenius
from bcspec.oracle import brute_modified_eigenspace, classify_cartesian, residual
from bcspec.verify import run_verify
from conftest import side_eigenspaces

ACCEPT_SEED = 424242


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {description}")


def _example_operator() -> BicomplexOperator:
    return BicomplexOperator(
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.eye(2, dtype=complex),
    )


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_worked_example_reproduction():
    # warm the numerics stack so the timed region measures the computation
    eigenvalues(np.eye(2, dtype=complex))
    with criterion(1, "worked example: spectra exact, residuals <= 1e-12, < 0.1 s"):
        start = time.perf_counter()
        op = _example_operator()
        rep = component_spectra(op, cluster_tol=1e-8)
        u1 = sorted(rep.upsilon1.value_list(), key=lambda z: z.real)
        u2 = rep.upsilon2.value_list()
        assert u1 == [0.0, 1.0]
        assert u2 == [1.0]
        eigvec = BicomplexVector([1, 0], [1, 1])          # (1, e2)
        assert residual(op, 1.0, eigvec) <= 1e-12
        modvec = BicomplexVector([1, 0], [0, 0])          # (e1, 0)
        for r in (0.0, 2.0, 1j, 1 + 1j):
            assert residual(op, Bicomplex(1.0, r), modvec) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_singularity_equivalence():
    with criterion(
        2, "1e5 scalars: component vs |z1^2+z2^2| route, exact outside the guard band"
    ):
        rng = np.random.default_rng(ACCEPT_SEED)
        tol = 1e-10
        total = 100_000
        n_generic = 60_000
        n_exact = 20_000
        n_near = total - n_generic - n_exact

        def polar(count, lo, hi):
            mags = 10.0 ** rng.uniform(lo, hi, count)
            phases = np.exp(2j * np.pi * rng.uniform(0, 1, count))
            return mags * phases

        minus = np.empty(total, dtype=complex)
        plus = np.empty(total, dtype=complex)
        # generic: wide log-magnitude spread on both components
        minus[:n_generic] = polar(n_generic, -6, 6)
        plus[:n_generic] = polar(n_generic, -6, 6)
        # exactly singular: one component identically zero
        half = n_exact // 2
        minus[n_generic : n_generic + half] = polar(half, -3, 3)
        plus[n_generic : n_generic + half] = 0.0
        minus[n_generic + half : n_generic + n_exact] = 0.0
        plus[n_generic + half : n_generic + n_exact] = polar(n_exact - half, -3, 3)
        # near-threshold: small component parked around tol * max(|big|, 1)
        big = polar(n_near, -1, 2)
        thr = tol * np.maximum(np.abs(big), 1.0)
        small = thr * 10.0 ** rng.uniform(-2, 2, n_near) * np.exp(
            2j * np.pi * rng.uniform(0, 1, n_near)
        )
        flip = rng.integers(0, 2, n_near).astype(bool)
        minus[-n_near:] = np.where(flip, big, small)
        plus[-n_near:] = np.where(flip, small, big)

        outside_disagree = 0
        band_total = 0
        band_disagree = 0
        for k in range(total):
            x = Bicomplex(complex(minus[k]), complex(plus[k]))
            z1, z2 = x.to_cartesian()
            a = x.classify(tol)
            b = classify_cartesian(z1, z2, tol)
            small_mag = min(abs(x.minus), abs(x.plus))
            threshold = x.singular_threshold(tol)
            in_band = 0.1 * threshold <= small_mag <= 10.0 * threshold
            if in_band:
                band_total += 1
                if a != b:
                    band_disagree += 1
            elif a != b:
                outside_disagree += 1
        assert outside_disagree == 0, f"{outside_disagree} disagreements outside the band"
        assert band_disagree / total < 0.001, (
            f"{band_disagree} band disagreements out of {total} ({band_total} in band)"
        )
        print(
            f"\n  [criterion 2] {total} samples, {band_total} in band, "
            f"{band_disagree} band disagreements, 0 outside"
        )


# -- criterion 3 -----------------------------------------------------------


@pytest.fixture(scope="module")
def full_verify():
    start = time.perf_counter()
    report = run_verify(seed=ACCEPT_SEED, trials=500, n_min=1, n_max=6)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_3_verify_suites(full_verify):
    report, elapsed = full_verify
    mapped = {
        "a": "kernel_image",
        "b": "operator_singularity",
        "c": "eigenvalue_criterion",
        "d": "modified_criterion",
        "e": "containment",
    }
    with criterion(3, "verify suites, 500 trials each at n in 1..6, < 60 s, 100% agreement"):
        suites = {s.name: s for s in report.suites}
        for label, name in mapped.items():
            suite = suites[name]
            assert suite.failures == 0, f"criterion 3({label}) / {name}: {suite.messages[:2]}"
        assert report.passed, [s.name for s in report.suites if not s.passed]
        assert elapsed < 60.0, f"verify took {elapsed:.1f}s"
        print(f"\n  [criterion 3] {len(report.suites)} suites x 500 trials in {elapsed:.1f}s")


# -- criterion 4 -----------------------------------------------------------


def _unitary(rng, n):
    q, r = np.linalg.qr(
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    )
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _planted_matrix(rng, n, planted=None, defective=False):
    """Matrix with fully known spectrum; the planted value may sit in a defective block."""
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if planted is not None:
        for i in range(n):
            while abs(diag[i] - planted) < 0.2:
                diag[i] = complex(rng.standard_normal() + 1j * rng.standard_normal())
        diag[0] = planted
    t = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(t, diag)
    if defective and planted is not None and n >= 2:
        diag[1] = planted
        np.fill_diagonal(t, diag)
        t[0, 1] = 0.01
    q = _unitary(rng, n)
    return q @ t @ q.conj().T


def test_criterion_4_eigenspace_structure():
    with criterion(4, "200 planted operators: structure vs block-oracle dims, singular one-sided"):
        rng = np.random.default_rng(ACCEPT_SEED + 1)
        cases = ("OnlyMinus", "OnlyPlus", "Both")
        checked = {case: 0 for case in cases}
        defective_seen = 0
        for i in range(200):
            case = cases[i % 3]
            defective = (i // 3) % 2 == 1
            n = 2 + (i % 4)
            lam1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
            lam2 = complex(rng.standard_normal() + 1j * rng.standard_normal())
            far = 10.0 + float(rng.uniform(0, 5))
            if case == "OnlyMinus":
                t1 = _planted_matrix(rng, n, lam1, defective)
                t2 = _planted_matrix(rng, n)
                kappa = Bicomplex(lam1, far)
            elif case == "OnlyPlus":
                t1 = _planted_matrix(rng, n)
                t2 = _planted_matrix(rng, n, lam2, defective)
                kappa = Bicomplex(far, lam2)
            else:
                t1 = _planted_matrix(rng, n, lam1, defective)
                t2 = _planted_matrix(rng, n, lam2, defective)
                kappa = Bicomplex(lam1, lam2)
            op = BicomplexOperator(t1, t2)
            space = modified_eigenspace(component_spectra(op), kappa)
            brute = brute_modified_eigenspace(op, kappa)
            assert space.case.value == case, f"instance {i}: case {space.case} != {case}"
            assert space.dim == brute.shape[1], (
                f"instance {i} ({case}, defective={defective}): "
                f"structure dim {space.dim} != block dim {brute.shape[1]}"
            )
            if defective:
                defective_seen += 1
                side = space.minus_basis if case != "OnlyPlus" else space.plus_basis
                assert side.shape[1] == 1  # geometric 1 under algebraic 2
            if case != "Both":
                for v in space.assembled:
                    assert classify_vector(v) is VectorClass.SINGULAR_NONZERO
            checked[case] += 1
        assert sum(checked.values()) == 200
        assert min(checked.values()) >= 66
        assert defective_seen >= 90
        print(f"\n  [criterion 4] instances per case: {checked}, defective: {defective_seen}")


# -- criterion 5 -----------------------------------------------------------


def _companion(roots):
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    n = len(coeffs) - 1
    c = np.zeros((n, n), dtype=complex)
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = -coeffs[1:][::-1]
    return c


def test_criterion_5_eigensolver_quality():
    with criterion(5, "eigenpair residuals <= 1e-8*(1+||A||); companion roots <= 1e-7"):
        rng = np.random.default_rng(ACCEPT_SEED + 2)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            es, spaces = side_eigenspaces(a)
            bound = 1e-8 * (1.0 + frobenius(a))
            for (lam, _), space in zip(es.values, spaces):
                assert space.shape[1] >= 1
                for v in space.T:
                    res = float(np.linalg.norm(a @ v - lam * v))
                    worst = max(worst, res / bound)
                    assert res <= bound
        root_sets = [
            [2.0, 3.0, 5.0],
            [1 + 1j, 1 - 1j, -2.0],
            [0.5, -0.5, 3j, -3j],
            [1.0, 1.0, -2.0],          # double root
            [-4.0],
            [2.5, -1.5],
        ]
        for roots in root_sets:
            got = eigenvalues(_companion(roots)).multiset()
            remaining = list(roots)
            for z in got:
                nearest = min(range(len(remaining)), key=lambda i: abs(z - remaining[i]))
                assert abs(z - remaining[nearest]) <= 1e-7, (roots, z)
                del remaining[nearest]
            assert not remaining
        print(f"\n  [criterion 5] worst residual at {worst:.2e} of the bound")


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_open_problem_experiment(capsys):
    with criterion(6, "eigenspace-sum experiment: overlap and direct pairs, findings only"):
        op = _example_operator()
        overlap = eigenspace_sum(component_spectra(op), Bicomplex(1.0, 2.0), Bicomplex(1.0, 3.0))
        assert overlap.intersection_dim == 1
        assert overlap.is_direct is False
        direct = eigenspace_sum(component_spectra(op), Bicomplex(1.0, 2.0), Bicomplex(7.0, 1.0))
        assert direct.is_direct is True
        # the CLI report must phrase the result as a computed finding
        from bcspec.cli import main

        code = main(
            [
                "explore-sum",
                "--input",
                json.dumps(
                    {
                        "n": 2,
                        "t1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                        "t2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    }
                ),
                "--kappa",
                '{"idem":[1,0,2,0]}',
                "--kappa2",
                '{"idem":[1,0,3,0]}',
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["intersection_dim"] == 1 and report["is_direct"] is False
        assert "computed finding" in report["note"]
        assert "answer" not in report["note"]
