"""Reproduced defects, each a strict expected failure naming the ROADMAP item meant to fix it.

Every test asserts the correct answer, not today's.  With xfail_strict, a
fix turns its test into an unexpected pass, which fails tier-1 until the
marker is removed, so no fix lands unnoticed and no partial fix regresses
unseen.  The probes are the ones the ROADMAP items give; none is resized or
re-seeded to change its outcome.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcspec.oracle
import bcspec.verify
from bcspec import Bicomplex, BicomplexOperator, component_spectra, eigenvalues, is_singular_operator, shift
from bcspec.cli import main
from bcspec.jsonio import carray_to_json
from bcspec.verify import DEFAULT_N_MAX, DEFAULT_N_MIN, SUITES, run_verify

SRC = str(Path(__file__).resolve().parents[1] / "src")


def known_defect(item: int, reason: str):
    return pytest.mark.xfail(reason=f"ROADMAP item {item}: {reason}", strict=True)


# -- item 1: the scalar, rank and membership rules disagree in a band ------

#: T = e1*1 + e2*5 (1x1) and kappa = (1 + 1e-9) e1 + 100 e2: kappa^- sits 1e-9 from the eigenvalue 1 of t1.
BAND_OP = BicomplexOperator(np.array([[1.0 + 0j]]), np.array([[5.0 + 0j]]))
BAND_KAPPA = Bicomplex(1.0 + 1e-9, 100.0)


@known_defect(1, "membership is a distance test within cluster_tol, singularity a rank test at tol")
def test_band_kappa_membership_agrees_with_shifted_singularity():
    modified = component_spectra(BAND_OP).classify_modified(BAND_KAPPA) is not None
    assert modified == is_singular_operator(shift(BAND_OP, BAND_KAPPA))


@known_defect(1, "the scalar rule scales by the larger component, the rank rule each side alone")
def test_decompose_operator_singular_agrees_with_its_one_entry(capsys):
    shifted = shift(BAND_OP, BAND_KAPPA)
    op_json = json.dumps({"t1": carray_to_json(shifted.t1), "t2": carray_to_json(shifted.t2)})
    assert main(["decompose", "--input", op_json]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["operator_singular"] == (report["entry_classes"] != [["NonSingular"]])


# -- item 5: a graded similarity collapses the clusters ---------------------


def graded(g: int) -> np.ndarray:
    """D A D^-1 with A = Q diag(1..6) Q^H, Q the unitary factor of a complex Gaussian 6x6, and D = diag(2**(g*i))."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    a = q @ np.diag(np.arange(1.0, 7.0)) @ q.conj().T
    d = 2.0 ** (g * np.arange(6.0))
    return d[:, None] * a / d[None, :]


@pytest.mark.parametrize(
    "g",
    [0, 2, 4]
    + [pytest.param(g, marks=known_defect(5, "the cluster tol uses ||D A D^-1||_F, which the grading inflates")) for g in (8, 16, 40)],
)
def test_graded_similarity_keeps_six_simple_eigenvalues(g):
    assert [m for _, m in eigenvalues(graded(g)).values] == [1] * 6


# -- item 10: the elimination oracle at the ends of the tol range -----------


@pytest.mark.parametrize(
    "tol",
    [
        pytest.param(1e-15, marks=known_defect(10, "shift_singularity ties at a computed eigenvalue")),
        pytest.param(1e-2, marks=known_defect(10, "pivots are not singular values: kernel_image and operator_singularity fail")),
    ],
)
def test_verify_passes_at_the_ends_of_the_tol_range(tol):
    report = run_verify(trials=30, tol=tol)
    assert report.passed, [(s.name, s.failures) for s in report.suites if not s.passed]


# -- item 12: eig depends on the BLAS thread count --------------------------


@known_defect(12, "eig, and every number printed from it, changes with the BLAS thread count")
def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(0)
    t1, t2 = (rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)) for _ in range(2))
    path = tmp_path / "gaussian-128.json"
    path.write_text(json.dumps({"t1": carray_to_json(t1), "t2": carray_to_json(t2)}))
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "bcspec.cli", "spectrum", "--input", str(path)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads},
            timeout=120,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1]


# -- item 16: verify's profiles and sizes alias -----------------------------


@known_defect(16, "trial t gets n = n_min + t % 6 and profile t % k, so a profile meets only some sizes")
def test_every_profile_meets_every_size(monkeypatch):
    drawn: dict[tuple[str, str], set[int]] = {}

    def spy(original):
        def random_operators(rngs, n, profile="generic"):
            for rng in rngs:
                drawn.setdefault((SUITES[rng.stream[0]][0], profile), set()).add(n)
            return original(rngs, n, profile)

        return random_operators

    monkeypatch.setattr(bcspec.verify, "random_operators", spy(bcspec.verify.random_operators))
    monkeypatch.setattr(bcspec.oracle, "random_operators", spy(bcspec.oracle.random_operators))
    run_verify(trials=60)
    sizes = set(range(DEFAULT_N_MIN, DEFAULT_N_MAX + 1))
    assert {key: sorted(sizes - seen) for key, seen in drawn.items() if seen != sizes} == {}
