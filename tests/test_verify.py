"""The suite runner itself: coverage, determinism, sensitivity."""

import json

import pytest

import bcspec.spectra
from bcspec.cli import main
from bcspec.verify import SUITES, run_sum_search, run_verify


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
    for w in a.witnesses:
        assert w["intersection_dim"] > 0
        assert w["sum_dim"] + w["intersection_dim"] == w["dim_first"] + w["dim_second"]
