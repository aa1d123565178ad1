"""Seeded workload inputs with planted truth, built with numpy only.

Inputs never come from ``bcspec.oracle``: a later change to the oracle must
not change what the benchmark feeds the CLI, so the parent commit and a
change get identical inputs for the same seed.

Each workload is a fixed cycle of ops.  An op is one CLI invocation: its
argv (after ``python -m bcspec.cli``), the input files it reads, and the
truth its output is checked against (see ``checks.py``).  The seed varies
the matrix entries and the planted values; sizes, shapes and command mix
are fixed per workload, so run-to-run timing differences come from the
program and the machine, not from a different amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Default clustering tolerance of the CLI (``--cluster-tol``); the checks
#: derive every absolute tolerance from it.
CLUSTER_TOL = 1e-8
#: Default singularity tolerance of the CLI (``--tol``).
TOL = 1e-10
#: Planted eigenvalues are at least this far apart, so a reported value
#: near one of them can only belong to it.
SEPARATION = 0.1
#: Coupling of planted Jordan 2-blocks: a true (unit) Jordan block.
JORDAN_COUPLING = 1.0
#: Trials per ``verify`` invocation in ``verify-small``.
VERIFY_TRIALS = 50


@dataclass
class Side:
    """One component matrix and its spectrum: (value, algebraic, geometric) triples."""

    matrix: np.ndarray
    spectrum: list[tuple[complex, int, int]]

    def frob(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass
class Op:
    """One CLI invocation of a workload, with what its output must show."""

    label: str
    command: str  # CLI subcommand; determinism repeats one op per command
    argv: list[str]
    files: dict[str, bytes] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _cn(gen: np.random.Generator, size) -> np.ndarray:
    return (gen.standard_normal(size) + 1j * gen.standard_normal(size)) / math.sqrt(2.0)


def _unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cn(gen, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _values(gen, k: int, avoid: list[complex], scale: float = 2.0) -> list[complex]:
    """k complex values, pairwise and from `avoid` at least SEPARATION apart.

    The sampling disk grows with k, so large k still leaves room to spare.
    """
    taken = list(avoid)
    out: list[complex] = []
    while len(out) < k:
        z = complex(_cn(gen, None)) * scale * math.sqrt(max(k, 1) / 16.0 + 1.0)
        if all(abs(z - w) >= SEPARATION for w in taken):
            taken.append(z)
            out.append(z)
    return out


def _disguise(gen, upper: np.ndarray) -> np.ndarray:
    q = _unitary(gen, upper.shape[0])
    return q @ upper @ q.conj().T


def _planted(gen, groups: list[tuple[complex, int]], jordan: list[complex] = ()) -> Side:
    """Unitarily disguised triangular matrix with the given spectrum.

    groups are (value, multiplicity) pairs of semisimple eigenvalues; each
    value in jordan adds one Jordan 2-block with unit coupling.
    """
    diag: list[complex] = []
    couple: list[int] = []
    for lam in jordan:
        couple.append(len(diag))
        diag += [lam, lam]
    for lam, m in groups:
        diag += [lam] * m
    t = np.diag(np.array(diag, dtype=np.complex128))
    for i in couple:
        t[i, i + 1] = JORDAN_COUPLING
    spectrum = [(lam, 2, 1) for lam in jordan] + [(lam, m, m) for lam, m in groups]
    return Side(_disguise(gen, t), spectrum)


def _gaussian(gen, n: int) -> Side:
    """Dense complex Gaussian matrix; its eigenvalues are simple with probability 1."""
    t = _cn(gen, (n, n))
    return Side(t, [(complex(z), 1, 1) for z in np.linalg.eigvals(t)])


def _distinct(gen, n: int, avoid=()) -> Side:
    return _planted(gen, [(v, 1) for v in _values(gen, n, list(avoid))])


def _clustered(gen, n: int, avoid=(), shared: complex | None = None) -> Side:
    """Eigenvalues of multiplicity n/2 and n/4, the rest simple; normal matrix."""
    big, mid = n // 2, n // 4
    heads = [shared] if shared is not None else []
    heads += _values(gen, 2 - len(heads), list(avoid) + heads)
    rest = _values(gen, n - big - mid, list(avoid) + heads)
    return _planted(gen, [(heads[0], big), (heads[1], mid)] + [(v, 1) for v in rest])


def _defective(gen, n: int, blocks: int = 3, avoid=()) -> Side:
    vals = _values(gen, blocks + n - 2 * blocks, list(avoid))
    return _planted(gen, [(v, 1) for v in vals[blocks:]], jordan=vals[:blocks])


def _matrix_json(t: np.ndarray) -> list:
    return np.stack([t.real, t.imag], axis=-1).tolist()


def _operator_file(t1: np.ndarray, t2: np.ndarray) -> bytes:
    doc = {"n": t1.shape[0], "t1": _matrix_json(t1), "t2": _matrix_json(t2)}
    return json.dumps(doc).encode()


def _idem(minus: complex, plus: complex) -> str:
    return json.dumps({"idem": [minus.real, minus.imag, plus.real, plus.imag]})


def _far(sides: list[Side], gen) -> complex:
    """A value at distance >= 10 from every eigenvalue of the given sides."""
    reach = max(abs(lam) for s in sides for lam, _, _ in s.spectrum)
    angle = gen.uniform(0.0, 2.0 * math.pi)
    return complex((reach + 10.0) * math.cos(angle), (reach + 10.0) * math.sin(angle))


def _operator_op(label, command, argv, s1: Side, s2: Side, truth: dict) -> Op:
    name = f"{label}.json"
    truth = dict(truth, side1=s1.spectrum, side2=s2.spectrum, frob1=s1.frob(), frob2=s2.frob())
    return Op(
        label,
        command,
        [command, "--input", name] + argv,
        files={name: _operator_file(s1.matrix, s2.matrix)},
        truth=truth,
    )


# -- spectrum-large -----------------------------------------------------------


def spectrum_large(gen: np.random.Generator, n: int = 128) -> list[Op]:
    """`spectrum` on four spectrum shapes, one op per shape.

    All shapes use one size: at equal n the four ops cost about the same, so
    the latency median and tail draw on every op of the run instead of
    falling between size classes.
    """
    ops = []
    s1 = _defective(gen, n)
    s2 = _distinct(gen, n, avoid=[lam for lam, _, _ in s1.spectrum])
    ops.append(_operator_op("defective", "spectrum", [], s1, s2, {}))

    s1 = _clustered(gen, n)
    s2 = _clustered(gen, n, avoid=[lam for lam, _, _ in s1.spectrum])
    ops.append(_operator_op("clustered", "spectrum", [], s1, s2, {}))

    lam = _values(gen, 1, [])[0]
    s1 = _planted(gen, [(lam, 1)] + [(v, 1) for v in _values(gen, n - 1, [lam])])
    s2 = _planted(gen, [(lam, 1)] + [(v, 1) for v in _values(gen, n - 1, [lam])])
    ops.append(_operator_op("shared", "spectrum", [], s1, s2, {}))

    ops.append(_operator_op("distinct", "spectrum", [], _gaussian(gen, n), _gaussian(gen, n), {}))
    return ops


# -- verify-small -------------------------------------------------------------


def verify_small(gen: np.random.Generator, count: int = 64) -> list[Op]:
    """`verify` with distinct derived seeds, default n range, fixed trial count.

    More ops than a run can reach, so no seed repeats within a run.
    """
    seeds = gen.integers(1, 2**31 - 1, size=count)
    return [
        Op(
            f"verify-{int(s)}",
            "verify",
            ["verify", "--seed", str(int(s)), "--trials", str(VERIFY_TRIALS)],
            truth={"seed": int(s), "trials": VERIFY_TRIALS},
        )
        for s in seeds
    ]


# -- query-mix ----------------------------------------------------------------


def _modified_ops(gen) -> list[Op]:
    ops = []
    for label, n, fmt, case in (
        ("modified-both-96", 96, "json", "Both"),
        ("modified-minus-8", 8, "text", "OnlyMinus"),
        ("modified-plus-48", 48, "json", "OnlyPlus"),
        ("modified-none-24", 24, "text", None),
    ):
        s1 = _distinct(gen, n)
        s2 = _distinct(gen, n, avoid=[lam for lam, _, _ in s1.spectrum])
        far = _far([s1, s2], gen)
        a = s1.spectrum[int(gen.integers(n))][0]
        b = s2.spectrum[int(gen.integers(n))][0]
        minus = a if case in ("Both", "OnlyMinus") else far
        plus = b if case in ("Both", "OnlyPlus") else far
        argv = ["--kappa", _idem(minus, plus), "--format", fmt]
        truth = {"case": case, "kappa": (minus, plus), "format": fmt}
        ops.append(_operator_op(label, "modified", argv, s1, s2, truth))
    return ops


def _eigenspace_ops(gen) -> list[Op]:
    ops = []
    for label, n, fmt in (("eigenspace-96", 96, "json"), ("eigenspace-64", 64, "text")):
        lam = _values(gen, 1, [])[0]
        s1 = _clustered(gen, n, shared=lam)
        # lam is the multiplicity-n/2 eigenvalue of both sides.
        s2 = _clustered(gen, n, avoid=[v for v, _, _ in s1.spectrum if v != lam], shared=lam)
        argv = ["--lam", json.dumps([lam.real, lam.imag]), "--format", fmt]
        truth = {"case": "Both", "kappa": (lam, lam), "format": fmt, "lam": lam}
        ops.append(_operator_op(label, "eigenspace", argv, s1, s2, truth))
    return ops


def _well_conditioned(gen, n: int) -> np.ndarray:
    """U diag(s) V^H with singular values in [0.5, 2]: far from singular at any n."""
    return _unitary(gen, n) @ np.diag(gen.uniform(0.5, 2.0, n)) @ _unitary(gen, n)


def _decompose_ops(gen) -> list[Op]:
    ops = []
    # A scalar of a planted ideal class.
    cls = ("NonSingular", "InI1", "InI2")[int(gen.integers(3))]
    minus, plus = complex(_cn(gen, None)) + 0.5, complex(_cn(gen, None)) + 0.5
    if cls == "InI1":
        plus = 0j
    elif cls == "InI2":
        minus = 0j
    ops.append(
        Op(
            "decompose-scalar",
            "decompose",
            ["decompose", "--input", _idem(minus, plus)],
            truth={"kind": "scalar", "class": cls, "scalar": (minus, plus), "format": "json"},
        )
    )
    # Well-conditioned operator: singular on neither side.
    n = 32
    t1, t2 = _well_conditioned(gen, n), _well_conditioned(gen, n)
    name = "decompose-nonsingular-32.json"
    ops.append(
        Op(
            "decompose-nonsingular-32",
            "decompose",
            ["decompose", "--input", name, "--format", "text"],
            files={name: _operator_file(t1, t2)},
            truth={"kind": "matrix", "n": n, "singular": False, "format": "text"},
        )
    )
    # Operator with a zero row in t1 and a zero column in t2: singular on both
    # sides, and its entries cover all four ideal classes.
    n = 16
    t1, t2 = _well_conditioned(gen, n), _well_conditioned(gen, n)
    i, j = int(gen.integers(n)), int(gen.integers(n))
    t1[i, :] = 0.0
    t2[:, j] = 0.0
    name = "decompose-singular-16.json"
    ops.append(
        Op(
            "decompose-singular-16",
            "decompose",
            ["decompose", "--input", name],
            files={name: _operator_file(t1, t2)},
            truth={"kind": "matrix", "n": n, "singular": True, "format": "json", "t1": t1, "t2": t2},
        )
    )
    return ops


def _explore_ops(gen) -> list[Op]:
    ops = []
    for label, n, fmt, direct in (("explore-direct-72", 72, "json", True), ("explore-overlap-40", 40, "text", False)):
        s1 = _distinct(gen, n)
        s2 = _distinct(gen, n, avoid=[lam for lam, _, _ in s1.spectrum])
        far = _far([s1, s2], gen)
        pick = gen.choice(n, size=2, replace=False)
        a, a2 = s1.spectrum[int(pick[0])][0], s1.spectrum[int(pick[1])][0]
        b = s2.spectrum[int(gen.integers(n))][0]
        if direct:
            # Two one-sided kappas at different t1 eigenvalues: independent spaces.
            first, second = (a, far), (a2, far)
            dims = {"dim_first": 1, "dim_second": 1, "sum_dim": 2, "intersection_dim": 0}
        else:
            # Both-case kappa and a one-sided kappa sharing its minus eigenvalue.
            first, second = (a, b), (a, far)
            dims = {"dim_first": 2, "dim_second": 1, "sum_dim": 2, "intersection_dim": 1}
        argv = ["--kappa", _idem(*first), "--kappa2", _idem(*second), "--format", fmt]
        truth = dict(dims, is_direct=direct, format=fmt)
        ops.append(_operator_op(label, "explore-sum", argv, s1, s2, truth))
    return ops


def query_mix(gen: np.random.Generator) -> list[Op]:
    """Single-answer commands on n in 8-96 in both formats, interleaved by command."""
    groups = [_modified_ops(gen), _eigenspace_ops(gen), _decompose_ops(gen), _explore_ops(gen)]
    ops: list[Op] = []
    while any(groups):
        for g in groups:
            if g:
                ops.append(g.pop(0))
    return ops


#: Workload name -> (op-list function, cycle length).  A run goes through the op list
#: in order, wrapping around, and stops only at a cycle boundary; None means
#: the whole list is one cycle, whose later passes repeat earlier ops exactly.
WORKLOADS = {
    "spectrum-large": (spectrum_large, None),
    "verify-small": (verify_small, 1),
    "query-mix": (query_mix, None),
}


def build(workload: str, seed: int) -> tuple[list[Op], int]:
    """The workload's op list for this seed, and its cycle length."""
    make_ops, cycle = WORKLOADS[workload]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBC5])))
    ops = make_ops(gen)
    return ops, cycle or len(ops)


def write_inputs(ops: list[Op], directory: Path) -> str:
    """Write every op's input files and return a digest of all inputs and argv."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps(op.argv).encode())
        for name, data in sorted(op.files.items()):
            (directory / name).write_bytes(data)
            digest.update(name.encode())
            digest.update(data)
    return digest.hexdigest()
