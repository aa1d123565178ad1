"""End-to-end CLI behaviour: commands, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcspec.linalg
import bcspec.spectra
from bcspec import Bicomplex, BicomplexMatrix
from bcspec.cli import main
from bcspec.oracle import Rng, random_operator
from bcspec.spectra import component_spectra, eigenspace_sum
from conftest import class_edge_pairs

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
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

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


    @pytest.mark.parametrize("form", ["operator", "matrix"])
    def test_entry_classes_match_the_entrywise_route(self, capsys, tmp_path, form):
        # ties at the threshold, -0.0 parts and subnormals; the reference classifies each entry as a Bicomplex
        minus, plus = (a.reshape(24, 24) for a in class_edge_pairs(24 * 24, 32))
        keys = ("t1", "t2") if form == "operator" else ("minus", "plus")
        obj = {key: np.stack([a.real, a.imag], axis=-1).tolist() for key, a in zip(keys, (minus, plus))}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path), "--tol", "1e-10")
        report = json.loads(out)
        matrix = BicomplexMatrix(minus, plus)
        assert code == 0
        assert report["entry_classes"] == [[matrix.entry(i, j).classify().value for j in range(24)] for i in range(24)]
        assert report["minus"] == np.stack([minus.real, minus.imag], axis=-1).tolist()

    def test_reports_build_no_scalar_per_entry(self, capsys, monkeypatch, op_file):
        built = []
        init = Bicomplex.__post_init__
        monkeypatch.setattr(Bicomplex, "__post_init__", lambda self: built.append(self) or init(self))
        eye = [[[float(i == j), 0.0] for j in range(12)] for i in range(12)]
        code, _, _ = run_cli(capsys, "decompose", "--input", json.dumps({"t1": eye, "t2": eye}))
        assert code == 0 and built == []
        for n in (2, 12):
            built.clear()
            diag = json.dumps({"t1": [row[:n] for row in eye[:n]], "t2": [row[:n] for row in eye[:n]]})
            code, out, _ = run_cli(capsys, "eigenspace", "--input", diag, "--lam", "[1,0]")
            assert code == 0 and json.loads(out)["dimension"] == 2 * n
            assert len(built) == 1  # kappa = 1*e1 + 1*e2

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


    def test_simple_eigenvalues_take_one_eig_per_operator(self, capsys, tmp_path, monkeypatch):
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
        # Membership goes through one near query per side, not a contains per point.
        monkeypatch.setattr(
            bcspec.linalg.EigenSet, "contains", counted("contains", bcspec.linalg.EigenSet.contains)
        )
        code, out, _ = run_cli(capsys, "spectrum", "--input", str(path))
        assert code == 0
        # both sides go through one stacked eig
        assert calls == {"eig": 1, "eigvals": 0, "nullspace": 0, "contains": 0}
        report = json.loads(out)
        assert sum(e["multiplicity"] for e in report["eigenvalues"]) == 128
        bound = 1e-8 * (1.0 + np.linalg.norm(t1) + np.linalg.norm(t2))
        for space in report["eigenspaces"]:
            assert space["dimension"] == 1
            assert space["max_residual"] <= bound

    def test_two_clusters_within_tolerance_take_the_rank_test(self, capsys):
        # Y1 = {0, 1.5e-8} is two clusters at tol ~1e-8, and the union keeps
        # them apart at that smaller tolerance; 7.5e-9 lies within tol of
        # both, so its eigenspace is the rank test's.
        op = json.dumps({"t1": [[[0, 0], [0, 0]], [[0, 0], [1.5e-8, 0]]], "t2": [[[100, 0], [0, 0]], [[0, 0], [100, 0]]]})
        code, out, _ = run_cli(capsys, "spectrum", "--input", op)
        assert code == 0
        report = json.loads(out)
        assert [(e["value"][0], e["multiplicity"]) for e in report["eigenvalues"]] == [(0.0, 1), (1.5e-8, 1), (100.0, 2)]
        assert report["eigenspaces"] == [
            {"dimension": 1, "max_residual": 0.0, "value": [0.0, 0.0]},
            {"dimension": 1, "max_residual": 0.0, "value": [1.5e-08, 0.0]},
            {"dimension": 2, "max_residual": 0.0, "value": [100.0, 0.0]},
        ]
        code, out, _ = run_cli(capsys, "eigenspace", "--input", op, "--lam", "[7.5e-9,0]")
        assert code == 0
        report = json.loads(out)
        assert (report["case"], report["dimension"], report["max_residual"]) == ("OnlyMinus", 2, 7.5e-09)

    @pytest.mark.parametrize(
        "op, union",
        [
            (
                '{"t1":[[[1e9,0],[0,0]],[[0,0],[1,0]]],"t2":[[[1,0],[0,0]],[[0,0],[1.5,0]]]}',
                [(1.0, 2), (1.5, 1), (1e9, 1)],
            ),
            (
                '{"t1":[[[0,0],[0,0]],[[0,0],[0.5,0]]],"t2":[[[1e9,0],[0,0]],[[0,0],[100,0]]]}',
                [(0.0, 1), (0.5, 1), (100.0, 1), (1e9, 1)],
            ),
        ],
        ids=["merge", "split"],
    )
    def test_the_union_is_clustered_at_the_smaller_tolerance(self, capsys, op, union):
        # Norms 1e9 apart: the large side's tol (~10) would merge the small
        # side's eigenvalues with each other or with the large side's.
        code, out, err = run_cli(capsys, "spectrum", "--input", op)
        assert (code, err) == (0, "")
        assert [(e["value"][0], e["multiplicity"]) for e in json.loads(out)["eigenvalues"]] == union

    def test_an_eigenvalue_of_one_side_prints_that_sides_value(self, capsys, tmp_path):
        # Normal n = 16 sides with clusters of multiplicity 8 and 4 and four
        # simple eigenvalues, no value shared: each eigenvalue of T is a side's
        # cluster as it stands, never a re-averaged copy of one.
        rng = np.random.default_rng(3)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)

        def side(vals):
            q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            return (q * np.array(vals)) @ q.conj().T

        t1 = side([v[0]] * 8 + [v[1]] * 4 + list(v[2:6]))
        t2 = side([v[6]] * 8 + [v[7]] * 4 + list(v[8:12]))
        path = tmp_path / "clustered.json"
        path.write_text(json.dumps({"t1": _matrix_json(t1), "t2": _matrix_json(t2)}))
        code, out, err = run_cli(capsys, "spectrum", "--input", str(path))
        assert (code, err) == (0, "")
        report = json.loads(out)
        sides = sorted(report["upsilon1"] + report["upsilon2"], key=lambda e: e["value"])
        assert sorted(e["multiplicity"] for e in sides) == [1] * 8 + [4, 4, 8, 8]
        assert report["eigenvalues"] == sides

    # t1 = diag(1e9, 1), t2 = diag(1, 1.5): t1's tol (about 10) covers 1.5, t2's does not
    SCALED_SIDE_OP = '{"t1":[[[1e9,0],[0,0]],[[0,0],[1,0]]],"t2":[[[1,0],[0,0]],[[0,0],[1.5,0]]]}'

    @staticmethod
    def _spaces(report):
        return [(e["value"], e["dimension"], e["max_residual"]) for e in report["eigenspaces"]]

    def test_each_side_cluster_feeds_one_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--input", self.SCALED_SIDE_OP)
        report = json.loads(out)
        assert code == 0
        assert [(e["value"], e["multiplicity"]) for e in report["eigenvalues"]] == [
            ([1.0, 0.0], 2), ([1.5, 0.0], 1), ([1e9, 0.0], 1)
        ]
        assert self._spaces(report) == [([1.0, 0.0], 2, 0.0), ([1.5, 0.0], 1, 0.0), ([1e9, 0.0], 1, 0.0)]

    def test_an_arbitrary_kappa_is_decided_per_side(self, capsys):
        # The cylinder rule: 1.5 is within t1's own tol of t1's eigenvalue 1,
        # so eigenspace takes that eigenvector, where spectrum does not.
        code, out, _ = run_cli(capsys, "eigenspace", "--input", self.SCALED_SIDE_OP, "--lam", "[1.5,0]")
        report = json.loads(out)
        assert code == 0
        assert (report["case"], report["dimension"], report["max_residual"]) == ("Both", 2, 0.5)

    def test_top_of_range_side_cluster_feeds_one_eigenvalue(self, capsys):
        # 0 lies within t1's tol (about 2e300) of t1's eigenvalue 1
        op = '{"t1":[[[1.5e308,1.5e308],[0,0]],[[0,0],[1,0]]],"t2":[[[0,0],[0,0]],[[0,0],[0,0]]]}'
        code, out, _ = run_cli(capsys, "spectrum", "--input", op)
        report = json.loads(out)
        assert code == 0
        assert [e["multiplicity"] for e in report["eigenvalues"]] == [2, 1, 1]
        assert self._spaces(report) == [([0.0, 0.0], 2, 0.0), ([1.0, 0.0], 1, 0.0), ([1.5e308, 1.5e308], 1, 0.0)]


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("name", ["worked_example", "diagonal3"])
    @pytest.mark.parametrize(
        "kappa",
        ['{"idem":[1,0,2,0]}', '{"idem":[9,0,1,0]}', '{"idem":[1,0,1,0]}', '{"idem":[7,0,9,0]}'],
        ids=["only-minus", "only-plus", "both", "non-member"],
    )
    def test_kappa_form_is_the_modified_report(self, capsys, fmt, name, kappa):
        argv = ["--input", str(GOLDEN_INPUTS / f"{name}.json"), "--kappa", kappa, "--format", fmt]
        reports = {}
        for command in ("modified", "eigenspace"):
            code, out, err = run_cli(capsys, command, *argv)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            header = [line for line in lines if line.strip().startswith(('"command":', "command:"))]
            assert len(header) == 1 and command in header[0]
            reports[command] = [line for line in lines if line not in header]
        assert reports["modified"] == reports["eigenspace"]

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
        assert (report["n_min"], report["n_max"]) == (2, 3)
        assert report["direct_count"] + report["non_direct_count"] <= report["trials"]
        for w in report["witnesses"]:
            assert {"kappa", "kappa_prime", "sum_dim", "intersection_dim"} <= set(w)

    def test_search_witnesses_replay(self, capsys):
        # Each witness names its trial's random operator and its two kappas; rebuilding
        # both and asking eigenspace_sum again must give the dimensions written for it.
        seed, n_min, n_max = 9, 2, 4
        code, out, err = run_cli(
            capsys, "explore-sum", "--search", "--trials", "40", "--seed", str(seed),
            "--n-min", str(n_min), "--n-max", str(n_max),
        )
        assert (code, err) == (0, "")
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) >= 5
        # the pins tell kappa from kappa_prime and the four dimensions apart
        assert any(w["dim_first"] != w["dim_second"] for w in witnesses)
        assert any(w["sum_dim"] != w["intersection_dim"] for w in witnesses)
        span = n_max - n_min + 1
        for w in witnesses:
            trial = w["trial"]
            planted = random_operator(
                Rng(seed, (997, trial)).child(0), n_min + trial % span, ("generic", "shared-eigenvalue")[trial % 2]
            )
            kappa, kappa_prime = (Bicomplex(complex(a, b), complex(c, d)) for a, b, c, d in (w["kappa"], w["kappa_prime"]))
            res = eigenspace_sum(component_spectra(planted.operator), kappa, kappa_prime)
            got = {"dim_first": res.dim_first, "dim_second": res.dim_second, "sum_dim": res.sum_dim,
                   "intersection_dim": res.intersection_dim}
            assert got == {key: w[key] for key in got}, trial

    def test_search_on_a_given_operator_reads_no_sizes(self, capsys, op_file):
        search = ["explore-sum", "--search", "--trials", "6", "--seed", "3"]
        code, plain, _ = run_cli(capsys, *search, "--input", op_file)
        assert code == 0 and json.loads(plain)["mode"] == "search"
        # a given operator has its own size, so the size flags are refused, valid or not
        for sizes in (["--n-min", "5", "--n-max", "3"], ["--n-min", "2"], ["--n-max", "4"]):
            code, out, err = run_cli(capsys, *search, "--input", op_file, *sizes)
            assert code == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("error: explore-sum: --search --input does not read --n-")
        # sampled operators take their sizes from the range, so it is still checked
        code, out, err = run_cli(capsys, *search, "--n-min", "5", "--n-max", "3")
        assert code == 2 and out == "" and "n_min <= n_max" in err

    def test_search_with_a_distance_beyond_the_float_range(self, capsys):
        # t1 = diag(1.5e308(1+i), 1), t2 = 0: |far - 1.5e308(1+i)| overflows Python's abs
        op = '{"t1":[[[1.5e308,1.5e308],[0,0]],[[0,0],[1,0]]],"t2":[[[0,0],[0,0]],[[0,0],[0,0]]]}'
        code, out, err = run_cli(capsys, "explore-sum", "--search", "--input", op, "--trials", "5")
        assert code == 0, err
        report = json.loads(out)
        assert report["direct_count"] + report["non_direct_count"] <= 5

    def test_non_member_kappa_is_parse_level_error(self, capsys, op_file):
        code, out, err = run_cli(
            capsys,
            "explore-sum",
            "--input", op_file,
            "--kappa", '{"idem":[7,0,9,0]}',
            "--kappa2", '{"idem":[1,0,3,0]}',
        )
        assert (code, out) == (2, "")
        # each component is printed once, in str(complex)'s own parentheses
        assert err.splitlines() == ["error: (7+0j)*e1 + (9+0j)*e2 is not a modified eigenvalue"]


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

    @pytest.mark.parametrize("t1", [[[[1.7e308, 0]] * 2] * 2], ids=["2x2"])
    @pytest.mark.parametrize(
        "argv", [["spectrum"], ["modified", "--kappa", '{"idem":[1.5e308,1.5e308,0,0]}']], ids=["spectrum", "modified"]
    )
    def test_non_finite_eigenvalues_exit_2(self, capsys, t1, argv):
        # Every entry is finite, but the eigenvalue 3.4e308 is beyond the float
        # range.  A stale ERANGE in the C errno makes Python's abs of a NaN
        # complex raise OverflowError, so provoke one: the verdict must not
        # depend on it.
        op = {"t1": t1, "t2": [[[0, 0]] * len(t1)] * len(t1)}
        with pytest.raises(OverflowError):
            math.exp(1000)
        code, out, err = run_cli(capsys, argv[0], "--input", json.dumps(op), *argv[1:])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: eig gave a non-finite eigenvalue of a finite matrix"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["modified", "--kappa", '{"idem":[1,0]}'], "kappa.idem: expected a list of 4 numbers, got [1, 0]"),
            (["eigenspace", "--kappa", '{"idem":[1,0]}'], "kappa.idem: expected a list of 4 numbers, got [1, 0]"),
            (["eigenspace", "--lam", "[1,0,0]"], "lam: expected [re, im], got [1, 0, 0]"),
        ],
        ids=["modified-kappa", "eigenspace-kappa", "eigenspace-lam"],
    )
    def test_malformed_argument_is_refused_before_the_eigensolve(self, capsys, argv, message):
        # eig overflows on this operator; the malformed argument is the error reported
        t1 = [[[1.7e308, 0]] * 2] * 2
        op = json.dumps({"t1": t1, "t2": [[[0, 0]] * 2] * 2})
        code, out, err = run_cli(capsys, argv[0], "--input", op, *argv[1:])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_top_of_range_eigenvalue_spectrum(self, capsys):
        # eig gives NaN for 1.5e308 + 1.5e308i, whose modulus exceeds the float
        # range; the eigenvalue itself is representable and is reported
        op = '{"t1":[[[1.5e308,1.5e308]]],"t2":[[[0,0]]]}'
        code, out, _ = run_cli(capsys, "spectrum", "--input", op)
        report = json.loads(out)
        assert code == 0
        assert report["upsilon1"] == [{"value": [1.5e308, 1.5e308], "multiplicity": 1}]
        assert [(s["dimension"], s["max_residual"]) for s in report["eigenspaces"]] == [(1, 0.0), (1, 0.0)]

    def test_top_of_range_eigenvalue_modified(self, capsys):
        op = '{"t1":[[[1.5e308,1.5e308]]],"t2":[[[0,0]]]}'
        code, out, _ = run_cli(capsys, "modified", "--input", op, "--kappa", '{"idem":[1.5e308,1.5e308,0,0]}')
        report = json.loads(out)
        assert code == 0
        assert (report["case"], report["dimension"]) == ("Both", 2)

    @pytest.mark.parametrize(
        "value",
        [
            '{"idem":[1.5e308,1.5e308,0,0]}',
            '{"t1":[[[1.5e308,1.5e308]]],"t2":[[[0,0]]]}',
            '{"minus":[[[1,0],[1.5e308,1.5e308]]],"plus":[[[1,0],[0,0]]]}',
        ],
        ids=["scalar", "operator", "matrix"],
    )
    def test_class_of_an_entry_beyond_float_range_exit_2(self, capsys, value):
        # every part is finite, but |1.5e308 + 1.5e308i| is not: no class can be decided
        code, out, err = run_cli(capsys, "decompose", "--input", value)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: numerical overflow: absolute value too large"]

    def test_overflowing_inverse_names_the_inverse(self, capsys):
        # the input is finite and NonSingular at this tolerance; 1/1e-310 is what overflows
        code, out, err = run_cli(capsys, "decompose", "--input", '{"idem":[1e-310,0,1,0]}', "--tol", "1e-320")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: inverse of Bicomplex(minus=(1e-310+0j), plus=(1+0j)) overflows float range"
        ]

    @pytest.mark.parametrize(
        "lam, shown", [("[1e400,0]", "(inf+0j)"), ("[NaN,0]", "(nan+0j)"), ("[0,-Infinity]", "-infj"), ("1e400", "(inf+0j)")]
    )
    def test_non_finite_lam_names_the_flag(self, capsys, op_file, lam, shown):
        code, out, err = run_cli(capsys, "eigenspace", "--input", op_file, "--lam", lam)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: lam: complex number must be finite, got {shown}"]

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
            ["verify", "--trials", "0"],
            ["explore-sum", "--search", "--trials", "0"],
            # each explore-sum mode refuses the flags only the other mode reads
            ["explore-sum", "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[1,0,3,0]}',
             "--trials", "0", "--seed", "5", "--n-min", "9"],
            ["explore-sum", "--search", "--trials", "2", "--kappa", '{"idem":[1,0,2,0]}'],
        ],
        ids=["equal-kappas", "verify-n-min-0", "verify-empty-range", "verify-negative-seed",
             "search-n-min-0", "search-empty-range", "search-negative-seed", "verify-no-trials",
             "search-no-trials", "explicit-with-search-flags", "search-with-kappa"],
    )
    def test_invalid_argument_exit_2(self, capsys, op_file, argv):
        if argv[0] == "explore-sum" and "--search" not in argv:
            argv = [*argv, "--input", op_file]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--input", "@"],
            ["decompose", "--input", '{"idem":[1,0,2,0]}'],
            ["spectrum", "--input", "@"],
            ["modified", "--input", "@", "--kappa", '{"idem":[1,0,2,0]}'],
            ["eigenspace", "--input", "@", "--kappa", '{"idem":[1,0,2,0]}'],
            ["eigenspace", "--input", "@", "--lam", "[1,0]"],
            ["verify", "--trials", "1", "--n-max", "2"],
            ["explore-sum", "--input", "@", "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[1,0,3,0]}'],
            ["explore-sum", "--search", "--trials", "2"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a.startswith("--") or a == argv[0]),
    )
    @pytest.mark.parametrize("tol_from", ["flag", "env"])
    def test_every_report_carries_its_header(self, capsys, monkeypatch, op_file, argv, fmt, tol_from):
        argv = [op_file if a == "@" else a for a in argv] + ["--format", fmt]
        if argv[0] != "decompose":
            argv += ["--cluster-tol", "1e-6"]
        if tol_from == "flag":
            monkeypatch.setenv("BCSPEC_TOL", "1e-7")
            argv += ["--tol", "1e-9"]
        else:
            monkeypatch.setenv("BCSPEC_TOL", "1e-9")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        keys = ("command", "tol", "cluster_tol")
        if fmt == "json":
            header = {key: value for key, value in json.loads(out).items() if key in keys}
        else:
            top = (line.split(": ", 1) for line in out.splitlines() if ": " in line and not line.startswith(" "))
            header = {key: value if key == "command" else json.loads(value) for key, value in top if key in keys}
        expected = {"command": argv[0], "tol": 1e-9}
        if argv[0] != "decompose":
            expected["cluster_tol"] = 1e-6
        assert header == expected

    def test_decompose_takes_no_cluster_tolerance(self, capsys):
        # nothing on decompose's route clusters eigenvalues, so argparse refuses the flag
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", '{"idem":[1,0,2,0]}', "--cluster-tol", "1e-6"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --cluster-tol" in err

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
        # eig runs on the matrix scaled by 2**-1024, which is exact, so the 1x1 side keeps its entry
        assert [e["value"] for e in report["eigenvalues"]] == [[-2.0, 6.6], [1.7e308, 2.5]]

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

    def test_scaled_identity_at_the_top_of_the_range(self, capsys):
        # T = 1e308*I: the union merges 1e308 of each side without forming 2e308
        code, out, err = run_cli(capsys, "spectrum", "--input", '{"t1":[[[1e308,0]]],"t2":[[[1e308,0]]]}')
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=self._reject)
        assert report["eigenvalues"] == [{"multiplicity": 2, "value": [1e308, 0.0]}]
        assert report["eigenspaces"] == [{"dimension": 2, "max_residual": 0.0, "value": [1e308, 0.0]}]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["spectrum"], None),
            (["modified", "--kappa", '{"idem":[1.2e308,1.2e308,0,0]}'], ("Both", 3)),
            (["eigenspace", "--lam", "[0,0]"], ("OnlyPlus", 2)),
        ],
        ids=["spectrum", "modified", "eigenspace"],
    )
    def test_distances_beyond_the_float_range_are_never_merged(self, capsys, argv, expected):
        # |1.2e308(1+i) - (-1e307)(1+i)| exceeds the float range, so Python's abs
        # raises on it; such a pair is two clusters, not an error.
        op = {"t1": [[[1.2e308, 1.2e308], [0, 0]], [[0, 0], [-1e307, -1e307]]], "t2": [[[0, 0]] * 2] * 2}
        code, out, err = run_cli(capsys, argv[0], "--input", json.dumps(op), *argv[1:])
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=self._reject)
        if expected is None:
            assert [e["multiplicity"] for e in report["eigenvalues"]] == [1, 2, 1]
            assert all(math.isfinite(e["max_residual"]) for e in report["eigenspaces"])
        else:
            assert (report["case"], report["dimension"]) == expected

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
