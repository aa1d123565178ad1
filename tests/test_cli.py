"""End-to-end CLI behaviour: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcspec.linalg
import bcspec.spectra
from bcspec.cli import main

EX_OP = {
    "n": 2,
    "t1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "t2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
}


@pytest.fixture
def op_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(EX_OP))
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")

# t1 = diag(1.7e308, -1.7e308, 1), whose Frobenius norm is beyond float range, and t2 = diag(1, 2, 3)
TOP_OF_RANGE_OP = json.dumps(
    {
        "t1": [[[1.7e308, 0], [0, 0], [0, 0]], [[0, 0], [-1.7e308, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
        "t2": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [2, 0], [0, 0]], [[0, 0], [0, 0], [3, 0]]],
    }
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_scalar_e1(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--input", '{"cart":[0.5,0,0,0.5]}')
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "InI1"
        assert report["scalar"]["idem"] == [1.0, 0.0, 0.0, 0.0]
        assert report["inverse"] is None

    def test_scalar_inverse_present(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--input", '{"real":[1,0,0,0]}')
        report = json.loads(out)
        assert code == 0
        assert report["class"] == "NonSingular"
        assert report["inverse"]["idem"] == [1.0, 0.0, 1.0, 0.0]
        assert report["inverse_residual"] <= 1e-14

    def test_scalar_product_check(self, capsys):
        # z1 = 1, z2 = 1: components (1-i, 1+i), invertible
        code, out, _ = run_cli(capsys, "decompose", "--input", '{"cart":[1,0,1,0]}')
        report = json.loads(out)
        assert code == 0
        assert report["inverse"] is not None
        assert report["inverse_residual"] <= 1e-12

    def test_scalar_z2_imaginary_is_singular(self, capsys):
        # z1 = 1, z2 = i: components (2, 0), a zero divisor
        code, out, _ = run_cli(capsys, "decompose", "--input", '{"cart":[1,0,0,1]}')
        report = json.loads(out)
        assert code == 0
        assert report["class"] == "InI1"
        assert report["inverse"] is None

    def test_matrix_input(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "decompose", "--input", op_file)
        report = json.loads(out)
        assert code == 0
        assert report["kind"] == "matrix"
        assert report["shape"] == [2, 2]
        assert report["operator_singular"] is True
        assert report["entry_classes"][0][0] == "NonSingular"
        assert report["entry_classes"][1][1] == "InI2"


    def test_large_scaled_identity_is_nonsingular(self, capsys, tmp_path):
        eye = [[[10.0 if i == j else 0.0, 0.0] for j in range(200)] for i in range(200)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 200, "t1": eye, "t2": eye}))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        assert json.loads(out)["operator_singular"] is False


class TestSpectrum:
    def test_worked_example(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "spectrum", "--input", op_file)
        report = json.loads(out)
        assert code == 0
        u1 = {tuple(e["value"]) for e in report["upsilon1"]}
        u2 = {tuple(e["value"]) for e in report["upsilon2"]}
        assert u1 == {(0.0, 0.0), (1.0, 0.0)}
        assert u2 == {(1.0, 0.0)}
        assert report["modified_spectrum"] == "({0, 1} xe C1) U (C1 xe {1})"
        dims = {tuple(e["value"]): e["dimension"] for e in report["eigenspaces"]}
        assert dims[(1.0, 0.0)] == 3 and dims[(0.0, 0.0)] == 1

    def test_identity(self, capsys):
        op = {"t1": [[[1, 0]]], "t2": [[[1, 0]]]}
        code, out, _ = run_cli(capsys, "spectrum", "--input", json.dumps(op))
        report = json.loads(out)
        assert code == 0
        assert report["upsilon1"] == [{"value": [1.0, 0.0], "multiplicity": 1}]
        assert report["upsilon2"] == [{"value": [1.0, 0.0], "multiplicity": 1}]


    def test_simple_eigenvalues_take_one_eig_per_side(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(64)
        t1, t2 = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal((2, 64, 64))
        path = tmp_path / "distinct.json"
        path.write_text(json.dumps({"t1": _matrix_json(t1), "t2": _matrix_json(t2)}))
        calls = {"eig": 0, "eigvals": 0, "nullspace": 0, "contains": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        nullspace = counted("nullspace", bcspec.linalg.nullspace)
        for module in (bcspec.linalg, bcspec.spectra):
            monkeypatch.setattr(module, "nullspace", nullspace)
        # Membership goes through one distances query per side, not a contains per point.
        monkeypatch.setattr(
            bcspec.linalg.EigenSet, "contains", counted("contains", bcspec.linalg.EigenSet.contains)
        )
        code, out, _ = run_cli(capsys, "spectrum", "--input", str(path))
        assert code == 0
        assert calls == {"eig": 2, "eigvals": 0, "nullspace": 0, "contains": 0}
        report = json.loads(out)
        assert sum(e["multiplicity"] for e in report["eigenvalues"]) == 128
        bound = 1e-8 * (1.0 + np.linalg.norm(t1) + np.linalg.norm(t2))
        for space in report["eigenspaces"]:
            assert space["dimension"] == 1
            assert space["max_residual"] <= bound

    def test_two_clusters_within_tolerance_take_the_rank_test(self, capsys):
        # Y1 = {0, 1.5e-8} is two clusters at tol ~1e-8; the union, clustered
        # at the tolerance of t2 = 100*I, holds 7.5e-9 within tol of both.
        op = {"t1": [[[0, 0], [0, 0]], [[0, 0], [1.5e-8, 0]]], "t2": [[[100, 0], [0, 0]], [[0, 0], [100, 0]]]}
        code, out, _ = run_cli(capsys, "spectrum", "--input", json.dumps(op))
        assert code == 0
        assert json.loads(out)["eigenspaces"] == [
            {"dimension": 2, "max_residual": 7.5e-09, "value": [7.5e-09, 0.0]},
            {"dimension": 2, "max_residual": 0.0, "value": [100.0, 0.0]},
        ]


def _matrix_json(t) -> list:
    return np.stack([t.real, t.imag], axis=-1).tolist()


class TestModified:
    def test_member(self, capsys, op_file):
        code, out, _ = run_cli(
            capsys, "modified", "--input", op_file, "--kappa", '{"idem":[1,0,2,0]}'
        )
        report = json.loads(out)
        assert code == 0
        assert report["is_modified_eigenvalue"] is True
        assert report["case"] == "OnlyMinus"
        assert report["dimension"] == 1
        assert report["vector_classes"] == ["SingularNonzero"]
        assert report["all_eigenvectors_singular"] is True
        assert report["max_residual"] <= 1e-12

    def test_non_member_is_a_verdict_not_an_error(self, capsys, op_file):
        code, out, _ = run_cli(
            capsys, "modified", "--input", op_file, "--kappa", '{"idem":[7,0,9,0]}'
        )
        report = json.loads(out)
        assert code == 0
        assert report["is_modified_eigenvalue"] is False
        assert report["case"] is None

    def test_each_side_is_decided_once_at_the_top_of_the_range(self, capsys):
        # kappa^- = 1.7e308j is farther from the eigenvalue 1.7e308 of t1 than the
        # float range reaches, so its distance is inf and the minus side is a
        # non-member, in modified and in explore-sum alike.
        op = {"t1": [[[1.7e308, 0], [0, 0]], [[0, 0], [1, 0]]], "t2": [[[2, 0], [0, 0]], [[0, 0], [3, 0]]]}
        kappa = '{"idem":[0,1.7e308,2,0]}'
        code, out, err = run_cli(capsys, "modified", "--input", json.dumps(op), "--kappa", kappa)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["case"], report["dim_minus"], report["dim_plus"]) == ("OnlyPlus", 0, 1)
        code, out, err = run_cli(
            capsys, "explore-sum", "--input", json.dumps(op), "--kappa", kappa, "--kappa2", '{"idem":[1,0,3,0]}'
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["dim_first"] == 1


class TestEigenspace:
    def test_lambda_one(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "eigenspace", "--input", op_file, "--lam", "[1,0]")
        report = json.loads(out)
        assert code == 0
        assert report["is_eigenvalue"] is True
        assert report["dimension"] == 3

    def test_kappa_form(self, capsys, op_file):
        code, out, _ = run_cli(
            capsys, "eigenspace", "--input", op_file, "--kappa", '{"idem":[0,0,1,0]}'
        )
        report = json.loads(out)
        assert code == 0
        assert report["case"] == "Both"
        assert report["dimension"] == 3

    def test_non_eigenvalue_is_a_verdict(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "eigenspace", "--input", op_file, "--lam", "[4,0]")
        report = json.loads(out)
        assert code == 0
        assert report["is_eigenvalue"] is False
        assert report["verdict"] == "not a modified eigenvalue"

    def test_requires_exactly_one_selector(self, capsys, op_file):
        code, _, err = run_cli(capsys, "eigenspace", "--input", op_file)
        assert code == 2 and "exactly one" in err
        code, _, _ = run_cli(
            capsys, "eigenspace", "--input", op_file, "--lam", "[1,0]", "--kappa", '{"idem":[1,0,1,0]}'
        )
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "8", "--format", "json")
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert len(report["suites"]) >= 10
        assert all(s["failures"] == 0 for s in report["suites"])

    @pytest.mark.usefixtures("swapped_kernel")
    def test_fault_injection_fails_the_kernel_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "8")
        report = json.loads(out)
        assert code == 1
        assert report["passed"] is False
        kernel = next(s for s in report["suites"] if s["name"] == "kernel_image")
        assert kernel["failures"] > 0
        others = [s for s in report["suites"] if s["name"] != "kernel_image"]
        assert all(s["failures"] == 0 for s in others)

    def test_minimal_run_is_fast(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--trials", "1", "--n-min", "1", "--n-max", "1")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "99")
        _, second, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "99")
        assert first == second


class TestExploreSum:
    def test_overlapping_pair(self, capsys, op_file):
        code, out, _ = run_cli(
            capsys,
            "explore-sum",
            "--input", op_file,
            "--kappa", '{"idem":[1,0,2,0]}',
            "--kappa2", '{"idem":[1,0,3,0]}',
        )
        report = json.loads(out)
        assert code == 0
        assert report["intersection_dim"] == 1
        assert report["is_direct"] is False
        assert "computed finding" in report["note"]

    def test_direct_pair(self, capsys, op_file):
        code, out, _ = run_cli(
            capsys,
            "explore-sum",
            "--input", op_file,
            "--kappa", '{"idem":[1,0,2,0]}',
            "--kappa2", '{"idem":[7,0,1,0]}',
        )
        report = json.loads(out)
        assert code == 0
        assert report["is_direct"] is True

    def test_search_mode_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "explore-sum", "--search", "--trials", "6", "--seed", "3", "--n-min", "2", "--n-max", "3"
        )
        report = json.loads(out)
        assert code == 0
        assert report["mode"] == "search"
        assert report["direct_count"] + report["non_direct_count"] <= report["trials"]
        for w in report["witnesses"]:
            assert {"kappa", "kappa_prime", "sum_dim", "intersection_dim"} <= set(w)

    def test_non_member_kappa_is_parse_level_error(self, capsys, op_file):
        code, _, err = run_cli(
            capsys,
            "explore-sum",
            "--input", op_file,
            "--kappa", '{"idem":[7,0,9,0]}',
            "--kappa2", '{"idem":[1,0,3,0]}',
        )
        assert code == 2
        assert "not a modified eigenvalue" in err


#: Runs CLI commands in a fresh interpreter; prints [exit code, stdout, scipy.linalg loaded] per command.
#: With "blocked" as its first argument, any import of scipy raises ImportError.
GUARD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from bcspec.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    results.append([code, out.getvalue(), "scipy.linalg" in sys.modules])
print(json.dumps(results))
"""


def _guarded(mode: str, commands: list[list[str]]) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, mode, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartup:
    def test_no_command_loads_scipy(self):
        simple = json.dumps({"t1": [[[1, 0], [5, 0]], [[0, 0], [2, 0]]], "t2": [[[3, 0], [0, 0]], [[1, 0], [4, 0]]]})
        double = json.dumps({"t1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "t2": [[[3, 0], [0, 0]], [[0, 0], [4, 0]]]})
        commands = [
            ["--help"],
            ["spectrum", "--input", simple],
            ["decompose", "--input", '{"cart":[1,0,1,0]}'],
            ["modified", "--input", simple, "--kappa", '{"idem":[7,0,8,0]}'],
            ["eigenspace", "--input", simple, "--lam", "[7,0]"],
            ["modified", "--input", simple, "--kappa", '{"idem":[1,0,4,0]}'],
            ["eigenspace", "--input", simple, "--lam", "[2,0]"],
            # each of these makes a rank decision
            ["spectrum", "--input", double],
            ["decompose", "--input", double],
            ["eigenspace", "--input", double, "--lam", "[1,0]"],
            ["explore-sum", "--input", double, "--kappa", '{"idem":[1,0,3,0]}', "--kappa2", '{"idem":[1,0,4,0]}'],
            ["verify", "--trials", "2"],
        ]
        blocked = _guarded("blocked", commands)
        normal = _guarded("normal", commands)
        assert [code for code, _, _ in blocked] == [0] * len(commands)
        assert [out for _, out, _ in blocked] == [out for _, out, _ in normal]
        assert [loaded for _, _, loaded in blocked + normal] == [False] * (2 * len(commands))
        assert [json.loads(out)["dimension"] for _, out, _ in normal[5:7]] == [2, 1]
        assert json.loads(normal[7][1])["eigenspaces"][0]["dimension"] == 2
        assert json.loads(normal[9][1])["dimension"] == 2

    def test_numpy_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text())["project"]
        assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


class TestErrorHandling:
    def test_bad_json_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--input", "{broken")
        assert code == 2 and "error:" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--input", "no_such_file.json")
        assert code == 2 and "not found" in err

    @pytest.mark.parametrize("kind", ["directory", "name-too-long", "not-utf8"])
    def test_unreadable_input_exit_2(self, capsys, tmp_path, kind):
        if kind == "directory":
            target = str(tmp_path)
        elif kind == "name-too-long":
            target = "a" * 5000
        else:
            target = str(tmp_path / "op.json")
            Path(target).write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, "spectrum", "--input", target)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read input file")

    def test_malformed_operator_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--input", '{"t1": [[[1,0]]]}')
        assert code == 2

    def test_non_finite_entry_exit_2(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "bcspec.cli", "spectrum", "--input", '{"t1":[[NaN]],"t2":[[1]]}'],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_idempotent_overflow_names_the_conversion(self, capsys):
        # every real coefficient is finite; z1 + i*z2 = 1e308 + 1e308 is not
        code, out, err = run_cli(capsys, "decompose", "--input", '{"real":[1e308,1e308,1e308,1e308]}')
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: scalar: conversion to idempotent components overflows float range"]

    def test_env_tolerance_override(self, capsys, monkeypatch):
        # plus component at 1e-5: singular at tol 1e-4, invertible at 1e-10
        monkeypatch.setenv("BCSPEC_TOL", "1e-4")
        code, out, _ = run_cli(capsys, "decompose", "--input", '{"idem":[1,0,1e-5,0]}')
        report = json.loads(out)
        assert code == 0
        assert report["tol"] == 1e-4
        assert report["class"] == "InI1"
        monkeypatch.setenv("BCSPEC_TOL", "bogus")
        code, _, err = run_cli(capsys, "decompose", "--input", '{"idem":[1,0,1e-5,0]}')
        assert code == 2 and "BCSPEC_TOL" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore-sum", "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[1,0,2,0]}'],
            ["verify", "--n-min", "0", "--trials", "1"],
            ["verify", "--n-min", "5", "--n-max", "3"],
            ["verify", "--seed", "-1", "--trials", "1"],
            ["explore-sum", "--search", "--n-min", "0"],
            ["explore-sum", "--search", "--n-min", "3", "--n-max", "2"],
            ["explore-sum", "--search", "--seed", "-1", "--trials", "1"],
        ],
        ids=["equal-kappas", "verify-n-min-0", "verify-empty-range", "verify-negative-seed",
             "search-n-min-0", "search-empty-range", "search-negative-seed"],
    )
    def test_invalid_argument_exit_2(self, capsys, op_file, argv):
        if argv[0] == "explore-sum" and "--search" not in argv:
            argv = [*argv, "--input", op_file]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, op_file, flag, value):
        code, out, err = run_cli(capsys, "spectrum", "--input", op_file, f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must be finite and positive")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_env_tolerance_must_be_finite_and_positive(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BCSPEC_TOL", value)
        code, out, err = run_cli(capsys, "decompose", "--input", '{"idem":[1,0,2,0]}')
        assert code == 2 and out == ""
        assert err.startswith("error: BCSPEC_TOL must be finite and positive")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BCSPEC_TOL", "1e-4")
        code, out, _ = run_cli(
            capsys, "decompose", "--input", '{"idem":[1,0,1e-5,0]}', "--tol", "1e-10"
        )
        report = json.loads(out)
        assert report["tol"] == 1e-10
        assert report["class"] == "NonSingular"


class TestOutputModes:
    def test_output_file(self, tmp_path, capsys, op_file):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--input", op_file, "--output", str(target)
        )
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["command"] == "spectrum"

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, op_file, kind):
        target = tmp_path / "missing" / "x.json" if kind == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, "spectrum", "--input", op_file, "--output", str(target))
        reason = "[Errno 2] No such file or directory" if kind == "missing-directory" else "[Errno 21] Is a directory"
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: cannot write report: {reason}: '{target}'"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_stdout_exit_2(self, op_file):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bcspec.cli", "spectrum", "--input", op_file],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
                timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write report: [Errno 28] No space left on device\n"

    def test_text_format(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "spectrum", "--input", op_file, "--format", "text")
        assert code == 0
        assert "modified_spectrum: ({0, 1} xe C1) U (C1 xe {1})" in out

    def test_no_nan_near_overflow(self, capsys, op_file):
        code, out, _ = run_cli(capsys, "eigenspace", "--input", op_file, "--lam", "[1e308,1e308]")
        assert code == 0
        report = json.loads(out, parse_constant=self._reject)
        assert report["kappa"]["cart"] == [1e308, 1e308, 0.0, 0.0]

    def test_huge_entries_keep_their_own_clusters(self, capsys):
        op = '{"t1":[[[1e200,0],[0,0]],[[0,0],[1,0]]],"t2":[[[1,0],[0,0]],[[0,0],[2,0]]]}'
        code, out, _ = run_cli(capsys, "spectrum", "--input", op)
        assert code == 0
        report = json.loads(out, parse_constant=self._reject)
        assert report["upsilon1"] == [
            {"multiplicity": 1, "value": [1.0, 0.0]},
            {"multiplicity": 1, "value": [1e200, 0.0]},
        ]

    def test_no_infinity_near_overflow(self, capsys):
        op = '{"t1":[[[1.7e308,2.5]]],"t2":[[[-2,6.6]]]}'
        code, out, err = run_cli(capsys, "spectrum", "--input", op)
        assert code == 0, err
        report = json.loads(out, parse_constant=self._reject)
        assert [e["value"] for e in report["eigenvalues"]] == [[-2.0, 6.6], [1.7e308, 2.5000000000000004]]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_report_exit_2(self, capsys, fmt):
        # At cluster_tol 1 the tolerance of t1, 1 + ||t1||_F, is beyond float
        # range, so both eigenvalues of t1 are one cluster whose eigenspace is
        # all of C^2; the residual of e1 is the column (1.7e308, 1.7e308), whose
        # norm is beyond float range too.
        op = '{"t1":[[[1.7e308,0],[0,0]],[[1.7e308,0],[0,0]]],"t2":[[[1,0],[0,0]],[[0,0],[2,0]]]}'
        code, out, err = run_cli(
            capsys, "modified", "--input", op, "--kappa", '{"idem":[0,0,7,0]}', "--cluster-tol", "1", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: report holds a non-finite number"]

    def test_top_of_range_side_keeps_its_eigenvalues(self, capsys):
        # ||t1||_F is beyond float range, but its tolerance 1e-8 * (1 + ||t1||_F) is not
        op = '{"t1":[[[1.7e308,0],[1.7e308,0]],[[0,0],[-1.7e308,0]]],"t2":[[[1,0],[0,0]],[[0,0],[1,0]]]}'
        code, out, err = run_cli(capsys, "spectrum", "--input", op)
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=self._reject)
        assert report["upsilon1"] == [
            {"multiplicity": 1, "value": [-1.7e308, 0.0]},
            {"multiplicity": 1, "value": [1.7e308, 0.0]},
        ]
        assert [(e["value"][0], e["multiplicity"]) for e in report["eigenvalues"]] == [
            (-1.7e308, 1),
            (1.0, 2),
            (1.7e308, 1),
        ]
        assert [e["max_residual"] for e in report["eigenspaces"]] == [0.0, 0.0, 0.0]

    def test_modified_at_the_top_of_the_range_is_one_eigenvector(self, capsys):
        code, out, err = run_cli(capsys, "modified", "--input", TOP_OF_RANGE_OP, "--kappa", '{"idem":[5,0,7,0]}')
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=self._reject)
        assert (report["case"], report["dimension"]) == ("OnlyMinus", 1)
        assert report["max_residual"] == 4.0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1, problem 2: the union of Y1 and Y2 is clustered at the larger side's tolerance",
    )
    @pytest.mark.parametrize(
        "op, union",
        [
            (TOP_OF_RANGE_OP, [(-1.7e308, 1), (1.0, 2), (2.0, 1), (3.0, 1), (1.7e308, 1)]),
            (
                '{"t1":[[[1.7e308,0],[1.7e308,0]],[[0,0],[-1.7e308,0]]],"t2":[[[1,0],[0,0]],[[0,0],[2,0]]]}',
                [(-1.7e308, 1), (1.0, 1), (2.0, 1), (1.7e308, 1)],
            ),
        ],
        ids=["diagonal", "triangular"],
    )
    def test_union_keeps_each_side_apart_at_the_top_of_the_range(self, capsys, op, union):
        code, out, err = run_cli(capsys, "spectrum", "--input", op)
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=self._reject)
        assert [(e["value"][0], e["multiplicity"]) for e in report["eigenvalues"]] == union

    @staticmethod
    def _reject(token):
        raise AssertionError(f"{token} in a JSON report")

    def test_byte_identical_reports(self, capsys, op_file):
        _, first, _ = run_cli(capsys, "spectrum", "--input", op_file)
        _, second, _ = run_cli(capsys, "spectrum", "--input", op_file)
        assert first == second
