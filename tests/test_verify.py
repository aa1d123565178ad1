"""The suite runner itself: coverage, determinism, sensitivity."""

import importlib
import json
import sys
from collections import Counter

import numpy as np
import pytest

import bcspec.spectra
import bcspec.verify
from bcspec.cli import main
from bcspec.core import DEFAULT_TOL, Bicomplex
from bcspec.linalg import DEFAULT_CLUSTER_TOL, eigenvalues, is_singular_matrix
from bcspec.operators import is_singular_operator, shift
from bcspec.oracle import PROFILES, Rng, random_operator, random_operators
from bcspec.spectra import component_spectra, stacked_spectra
from bcspec.verify import (
    MAX_WITNESSES,
    SUITES,
    _analyses,
    _blocks,
    _raw_cylinder,
    _shifted_singular,
    run_sum_search,
    run_verify,
)

#: The suites whose shifted-rank tests go through one stacked is_singular_matrix call per trial.
STACKED_SUITES = ("shift_singularity", "eigenvalue_criterion", "modified_criterion")


def test_threshold_table_names_where_each_is_computed():
    rows = [line.split()[-1] for line in bcspec.verify.__doc__.splitlines() if line.startswith("  ")]
    assert len(rows) == 10
    for place in rows:
        module, _, name = place.rpartition(".")
        assert hasattr(importlib.import_module(f"bcspec.{module or 'verify'}"), name), place


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


def _bits(planted, report) -> list[bytes]:
    """Every byte of a (planted, report) pair: both sides, the planted truth, and each side's values, tol and kept vectors."""
    out = [planted.operator.t1.tobytes(), planted.operator.t2.tobytes()]
    out.append(repr((planted.profile, planted.shared_eigenvalue, planted.defective_side, planted.defective_eigenvalue)).encode())
    for es in (report.upsilon1, report.upsilon2):
        out.append(np.array(list(es.values), dtype=[("v", "<c16"), ("m", "<i8")]).tobytes() + np.float64(es.tol).tobytes())
        out += [b"-" if v is None else v.tobytes() for v in es.vectors]
    return out


def _alone(rng, n, profile):
    planted = random_operator(rng.child(0), n, profile)
    return planted, component_spectra(planted.operator)


@pytest.mark.parametrize("seed", [3, 20240901])
@pytest.mark.parametrize("sizes", [range(1, 7), range(7, 10)])
def test_stacked_build_and_analysis_change_no_bits(seed, sizes):
    for profile in PROFILES:
        for n in sizes:
            rngs = [Rng(seed, (PROFILES.index(profile), n, trial)) for trial in range(5)]
            planted = random_operators([rng.child(0) for rng in rngs], n, profile)
            reports = stacked_spectra([p.operator for p in planted])
            for rng, pair in zip(rngs, zip(planted, reports)):
                assert _bits(*pair) == _bits(*_alone(rng, n, profile)), (profile, n)


@pytest.mark.parametrize("caps", [None, (3, 60)])
def test_verify_route_changes_no_bits(monkeypatch, caps):
    # the runner's route, blocks and (n, profile) groups included, at the default caps and at tiny ones
    if caps:
        monkeypatch.setattr(bcspec.verify, "_BLOCK_TRIALS", caps[0])
        monkeypatch.setattr(bcspec.verify, "_BLOCK_ENTRIES", caps[1])
    rngs = [Rng(11, (4, trial)) for trial in range(40)]
    sizes = [1 + trial % 9 for trial in range(40)]
    profiles = [PROFILES[trial % 4] for trial in range(40)]
    got = list(_analyses(rngs, sizes, profiles, DEFAULT_CLUSTER_TOL))
    assert len(got) == 40
    for rng, n, profile, pair in zip(rngs, sizes, profiles, got):
        assert _bits(*pair) == _bits(*_alone(rng, n, profile)), (n, profile)


def test_one_stacked_analysis_per_block_size_and_profile(monkeypatch):
    stacks = []

    def spy(ops, cluster_tol=DEFAULT_CLUSTER_TOL):
        stacks.append((len(ops), ops[0].n))
        return stacked_spectra(ops, cluster_tol)

    monkeypatch.setattr(bcspec.verify, "stacked_spectra", spy)
    assert run_verify(seed=7, trials=12).passed
    # 10 suites analyse an operator per trial; over 12 trials at n = 1..6 each meets 6 (n, profile) groups of 2
    # (profiles cycle with period 1 or 3, which divides 6)
    assert Counter(stacks) == {(2, n): 10 for n in range(1, 7)}


def test_blocks_respect_both_caps(monkeypatch):
    monkeypatch.setattr(bcspec.verify, "_BLOCK_ENTRIES", 50)
    sizes = [1, 2, 3, 6, 1, 1, 4, 4]
    # entries 2, 8, 18, 72, 2, 2, 32, 32: a trial over the cap stands alone
    assert list(_blocks(sizes)) == [range(0, 3), range(3, 4), range(4, 7), range(7, 8)]
    monkeypatch.setattr(bcspec.verify, "_BLOCK_TRIALS", 2)
    assert list(_blocks(sizes)) == [range(0, 2), range(2, 3), range(3, 4), range(4, 6), range(6, 7), range(7, 8)]
    assert list(_blocks([])) == []


@pytest.mark.parametrize("n, trials, stacks", [(100, 30, 3), (1, 257, 2)])
def test_largest_stack_stays_under_the_caps(monkeypatch, n, trials, stacks):
    # only existence runs; at n = 100 its 2 n**2 = 20,000 entries a trial fit 13 to a block, at n = 1 the trial cap binds
    seen = []

    def spy(a, cluster_tol=DEFAULT_CLUSTER_TOL):
        seen.append((len(a), sum(np.size(t) for t in a)))
        return eigenvalues(a, cluster_tol)

    monkeypatch.setattr(bcspec.spectra, "eigenvalues", spy)
    monkeypatch.setattr(bcspec.verify, "SUITES", [s for s in SUITES if s[0] == "existence"])
    assert run_verify(seed=3, trials=trials, n_min=n, n_max=n).passed
    assert len(seen) == stacks
    assert max(entries for _, entries in seen) <= bcspec.verify._BLOCK_ENTRIES
    assert max(count for count, _ in seen) <= 2 * bcspec.verify._BLOCK_TRIALS


def test_huge_tolerance_reports_instead_of_overflowing(capsys):
    # at tol * n_max >= 1 the rank rule calls every matrix singular: one error line names the bound
    assert main(["verify", "--trials", "2", "--tol", "1e300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: need tol * n_max < 1, got 1e+300 * 6")
