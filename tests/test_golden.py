"""CLI stdout compared byte for byte with a committed golden corpus.

Every command runs in json and text form on the worked example and on small
operators with exact integer entries (diagonal or triangular), whose spectra
and eigenvectors come out exact, so the files do not depend on the BLAS build.

Regenerate the corpus only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py

It prints the name of each file whose content changed and leaves the others
untouched.
"""

from pathlib import Path

import pytest

from bcspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EX = "worked_example"
DIAG = "diagonal3"
TRI = "triangular3"
EDGE_MATRIX = "edge_matrix"
EDGE_OPERATOR = "edge_operator"

#: case name -> CLI argv; "@name" stands for the input file inputs/name.json.
CASES = {
    "decompose-scalar-idem": ["decompose", "--input", '{"idem":[1,0,2,0]}'],
    "decompose-scalar-cart-singular": ["decompose", "--input", '{"cart":[1,0,0,1]}'],
    "decompose-scalar-real": ["decompose", "--input", '{"real":[1,2,3,4]}'],
    "decompose-scalar-tol": ["decompose", "--input", '{"idem":[1,0,1e-5,0]}', "--tol", "1e-4"],
    "decompose-operator": ["decompose", "--input", f"@{EX}"],
    "decompose-operator-triangular": ["decompose", "--input", f"@{TRI}"],
    # -0.0 parts, subnormals, entries exactly at the class threshold and one ulp past it, all four classes
    "decompose-matrix-edge-cases": ["decompose", "--input", f"@{EDGE_MATRIX}"],
    "decompose-operator-edge-cases": ["decompose", "--input", f"@{EDGE_OPERATOR}"],
    "decompose-matrix-entrywise": [
        "decompose",
        "--input",
        '[[{"idem":[1,0,0,0]},{"real":[0,0,0,0]}],[{"cart":[1,0,0,1]},{"idem":[2,0,3,0]}]]',
    ],
    "spectrum-worked-example": ["spectrum", "--input", f"@{EX}"],
    "spectrum-diagonal": ["spectrum", "--input", f"@{DIAG}"],
    "spectrum-triangular": ["spectrum", "--input", f"@{TRI}"],
    "spectrum-cluster-tol": ["spectrum", "--input", f"@{DIAG}", "--cluster-tol", "1e-6"],
    "modified-only-minus": ["modified", "--input", f"@{EX}", "--kappa", '{"idem":[1,0,2,0]}'],
    "modified-only-plus": ["modified", "--input", f"@{EX}", "--kappa", '{"idem":[9,0,1,0]}'],
    "modified-both": ["modified", "--input", f"@{EX}", "--kappa", '{"idem":[1,0,1,0]}'],
    "modified-non-member": ["modified", "--input", f"@{EX}", "--kappa", '{"idem":[7,0,9,0]}'],
    "modified-diagonal-both": ["modified", "--input", f"@{DIAG}", "--kappa", '{"idem":[2,0,0,0]}'],
    "modified-triangular-cart": ["modified", "--input", f"@{TRI}", "--kappa", '{"cart":[2,0,0,1]}'],
    "eigenspace-lam-one": ["eigenspace", "--input", f"@{EX}", "--lam", "[1,0]"],
    "eigenspace-lam-zero": ["eigenspace", "--input", f"@{EX}", "--lam", "[0,0]"],
    "eigenspace-non-eigenvalue": ["eigenspace", "--input", f"@{EX}", "--lam", "[4,0]"],
    "eigenspace-kappa": ["eigenspace", "--input", f"@{EX}", "--kappa", '{"idem":[0,0,1,0]}'],
    "eigenspace-diagonal": ["eigenspace", "--input", f"@{DIAG}", "--lam", "[2,0]"],
    "eigenspace-triangular-imaginary": ["eigenspace", "--input", f"@{TRI}", "--lam", "[0,1]"],
    "explore-sum-overlapping": [
        "explore-sum", "--input", f"@{EX}",
        "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[1,0,3,0]}',
    ],
    "explore-sum-direct": [
        "explore-sum", "--input", f"@{EX}",
        "--kappa", '{"idem":[1,0,2,0]}', "--kappa2", '{"idem":[7,0,1,0]}',
    ],
    "explore-sum-diagonal": [
        "explore-sum", "--input", f"@{DIAG}",
        "--kappa", '{"idem":[2,0,3,0]}', "--kappa2", '{"idem":[2,0,0,0]}',
    ],
    "explore-sum-search": [
        "explore-sum", "--search", "--input", f"@{DIAG}", "--trials", "8", "--seed", "3",
    ],
    "verify": ["verify", "--trials", "3"],
}
FORMATS = {"json": "json", "text": "txt"}


def _argv(name: str, fmt: str) -> list[str]:
    argv = [str(INPUTS / f"{a[1:]}.json") if a.startswith("@") else a for a in CASES[name]]
    return argv + ["--format", fmt]


def _golden(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fmt, capsys, monkeypatch):
    monkeypatch.delenv("BCSPEC_TOL", raising=False)
    code = main(_argv(name, fmt))
    out = capsys.readouterr().out
    assert code == 0
    assert out == _golden(name, fmt).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        for fmt in FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(name, fmt))
            if code != 0:
                raise SystemExit(f"{name} ({fmt}) exited {code}")
            path = _golden(name, fmt)
            if not path.exists() or path.read_text() != buf.getvalue():
                path.write_text(buf.getvalue())
                print(path.name)
