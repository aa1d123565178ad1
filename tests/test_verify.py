"""The suite runner itself: coverage, determinism, sensitivity."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import bcspec.spectra
import bcspec.verify
from bcspec.cli import main
from bcspec.core import DEFAULT_TOL, Bicomplex
from bcspec.linalg import DEFAULT_CLUSTER_TOL, is_singular_matrix
from bcspec.operators import is_singular_operator, shift
from bcspec.oracle import PROFILES, Rng, random_operator
from bcspec.verify import MAX_WITNESSES, SUITES, _raw_cylinder, _shifted_singular, run_sum_search, run_verify

#: The suites whose shifted-rank tests go through one stacked is_singular_matrix call per trial.
STACKED_SUITES = ("shift_singularity", "eigenvalue_criterion", "modified_criterion")


def test_at_least_ten_named_suites():
    assert len(SUITES) >= 10
    names = [name for name, _, _ in SUITES]
    assert len(set(names)) == len(names)
    for _, statement, _ in SUITES:
        assert statement  # every suite states what it checks


def test_small_run_is_green():
    report = run_verify(trials=6, seed=7)
    assert report.passed
    assert [s.name for s in report.suites] == [name for name, _, _ in SUITES]


def test_larger_sizes_are_green():
    for n_min, n_max, trials in ((14, 20, 7), (40, 40, 3)):
        report = run_verify(trials=trials, n_min=n_min, n_max=n_max)
        assert report.passed, [(s.name, s.messages[:1]) for s in report.suites if not s.passed]


def test_runs_are_deterministic():
    a = run_verify(trials=5, seed=11)
    b = run_verify(trials=5, seed=11)
    assert [(s.name, s.failures, s.messages) for s in a.suites] == [
        (s.name, s.failures, s.messages) for s in b.suites
    ]


@pytest.mark.usefixtures("swapped_kernel")
def test_fault_injection_is_detected():
    report = run_verify(trials=10, seed=7)
    assert not report.passed
    kernel = next(s for s in report.suites if s.name == "kernel_image")
    assert kernel.failures > 0
    # the fault is local to the kernel path; everything else stays green
    assert all(s.passed for s in report.suites if s.name != "kernel_image")


def test_faulty_criterion_fails_its_suites(monkeypatch, capsys):
    # A criterion that rejects every kappa is reported with replay keys, not raised.
    monkeypatch.setattr(bcspec.spectra.SpectrumReport, "classify_modified", lambda self, kappa: None)
    report = run_verify(trials=3, seed=7)
    failed = {s.name: s for s in report.suites if not s.passed}
    assert {"containment", "infinite_family"} <= set(failed)
    for suite in failed.values():
        assert suite.messages
        assert all(f"[seed=7 suite={suite.name} trial=" in m for m in suite.messages)
    assert main(["verify", "--trials", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.usefixtures("swapped_kernel")
def test_failure_messages_carry_replay_key():
    report = run_verify(trials=10, seed=7)
    kernel = next(s for s in report.suites if s.name == "kernel_image")
    assert kernel.messages
    assert all("seed=7" in m and "trial=" in m for m in kernel.messages)


def test_minimal_configuration():
    report = run_verify(trials=1, n_min=1, n_max=1, seed=3)
    assert report.passed


def test_sum_search_deterministic_and_well_formed():
    a = run_sum_search(seed=5, trials=12, n_min=2, n_max=3)
    b = run_sum_search(seed=5, trials=12, n_min=2, n_max=3)
    assert (a.direct_count, a.non_direct_count, a.witnesses) == (
        b.direct_count,
        b.non_direct_count,
        b.witnesses,
    )
    assert a.direct_count + a.non_direct_count <= 12
    assert len(a.witnesses) == min(a.non_direct_count, MAX_WITNESSES) > 0
    for w in a.witnesses:
        assert 0 <= w.trial < 12 and w.kappa != w.kappa_prime
        assert w.dims.intersection_dim > 0 and not w.dims.is_direct
        assert max(w.dims.dim_first, w.dims.dim_second) <= w.dims.sum_dim < w.dims.dim_first + w.dims.dim_second


def _per_kappa_cylinder(op, cluster_tol, kappas):
    """The per-kappa cylinder test _raw_cylinder replaces, kept as its reference: two reductions per kappa."""
    sides = [(np.linalg.eigvals(t), cluster_tol * (1.0 + np.linalg.norm(t))) for t in (op.t1, op.t2)]
    return [
        any(np.abs(raw - z).min() <= bound for (raw, bound), z in zip(sides, (k.minus, k.plus)))
        for k in kappas
    ]


def _probe_kappas(op, gen):
    """Kappas at the computed side eigenvalues, at lambda + 10**e for e = -14..-6, and far from every eigenvalue."""
    l1, l2 = (complex(np.linalg.eigvals(t)[0]) for t in (op.t1, op.t2))
    far = complex(gen.standard_normal(), gen.standard_normal()) + 1e3
    at = [Bicomplex(l1, far), Bicomplex(far, l2), Bicomplex(l1, l2), l1, l2]
    near = [Bicomplex(l1 + 10.0**e, far) for e in range(-14, -5)] + [l2 + 1j * 10.0**e for e in range(-14, -5)]
    return at, near, [Bicomplex(far, -far), far]


def test_stacked_shift_tests_match_the_operator_test():
    flipped = 0
    for profile in PROFILES:
        for trial in range(24):
            n = 1 + trial % 6
            op = random_operator(Rng(31, (PROFILES.index(profile), trial)), n, profile).operator
            at, near, far = _probe_kappas(op, np.random.default_rng(trial))
            kappas = at + near + far
            got = _shifted_singular(op, kappas, DEFAULT_TOL)
            assert got == [is_singular_operator(shift(op, k), DEFAULT_TOL) for k in kappas], (profile, trial)
            # offsets walk out of the singular band, so the stack holds both verdicts side by side
            flipped += len(set(got[len(at) : len(at) + 9])) == 2
    assert flipped > 48


def test_vectorised_cylinder_matches_the_per_kappa_route():
    members = 0
    for profile in PROFILES:
        for trial in range(24):
            n = 1 + trial % 6
            op = random_operator(Rng(37, (PROFILES.index(profile), trial)), n, profile).operator
            gen = np.random.default_rng(trial)
            at, near, far = _probe_kappas(op, gen)
            kappas = [k if isinstance(k, Bicomplex) else Bicomplex.from_complex(k) for k in at + near + far]
            kappas += [Bicomplex(*(gen.standard_normal(2) + 1j * gen.standard_normal(2))) for _ in range(17)]
            got = _raw_cylinder(op, DEFAULT_CLUSTER_TOL, kappas)
            assert got == _per_kappa_cylinder(op, DEFAULT_CLUSTER_TOL, kappas), (profile, trial)
            members += sum(got)
    assert 0 < members < 96 * 43


def test_flipped_stacked_rank_tests_fail_their_suites(monkeypatch):
    def flipped(a, tol=DEFAULT_TOL):
        return [not v for v in is_singular_matrix(a, tol)]

    monkeypatch.setattr(bcspec.verify, "is_singular_matrix", flipped)
    report = run_verify(trials=6, seed=7)
    failed = {s.name: s for s in report.suites if not s.passed}
    # operator_singularity asks is_singular_operator, which the fault does not reach
    assert set(failed) == set(STACKED_SUITES)
    for suite in failed.values():
        assert suite.failures == 6
        assert all(m.startswith(f"[seed=7 suite={suite.name} trial=") for m in suite.messages)


def test_one_stacked_rank_test_per_trial(monkeypatch):
    calls = Counter()

    def spy(a, tol=DEFAULT_TOL):
        frame = sys._getframe(1)
        while not frame.f_code.co_name.startswith("_suite_"):
            frame = frame.f_back
        calls[frame.f_code.co_name.removeprefix("_suite_")] += 1
        return is_singular_matrix(a, tol)

    monkeypatch.setattr(bcspec.verify, "is_singular_matrix", spy)
    assert run_verify(seed=7, trials=6).passed
    assert calls == {name: 6 for name in STACKED_SUITES}
