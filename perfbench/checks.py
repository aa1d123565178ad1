"""Checks of CLI output against the truth the generator planted.

A check collects problems.  A problem is (defect, message): defect names a
known, documented defect of the program that the output shows, or is None
for an unexpected problem.  Both make the op fail and count in
``pass_frac``; only unexpected problems make a run incorrect.
"""

from __future__ import annotations

import json

from workloads import CLUSTER_TOL, SEPARATION, TOL, Op

#: ROADMAP item 1: the determinant route calls well-conditioned matrices
#: singular from n of about 16 on.
DET_SINGULARITY = "det-singularity"
#: ROADMAP item 2: a defective eigenvalue is split into two simple ones, or
#: reported with as many eigenvectors as its multiplicity.
DEFECTIVE_EIGENVALUE = "defective-eigenvalue"


class Result:
    """Problems found in one output, and its worst residual relative to the bound."""

    def __init__(self):
        self.problems: list[tuple[str | None, str]] = []
        self.residual_ratio: float | None = None

    def fail(self, message: str, defect: str | None = None):
        self.problems.append((defect, message))

    def expect(self, got, want, what: str, defect: str | None = None):
        if got != want:
            self.fail(f"{what}: got {got!r}, expected {want!r}", defect)

    def residual(self, value, bound: float, what: str):
        ratio = float(value) / bound
        self.residual_ratio = max(self.residual_ratio or 0.0, ratio)
        if not ratio <= 1.0:
            self.fail(f"{what}: max_residual {value} above {bound:.3e}")


def _text_fields(text: str) -> dict:
    """Top-level `key: value` lines of a text report, with values decoded."""
    out = {}
    for line in text.splitlines():
        if line.startswith(" ") or ": " not in line:
            continue
        key, raw = line.split(": ", 1)
        literal = {"True": True, "False": False, "None": None}
        if raw in literal:
            out[key] = literal[raw]
            continue
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _report(op: Op, stdout: bytes) -> dict:
    text = stdout.decode()
    if op.truth.get("format", "json") == "text":
        return _text_fields(text)
    return json.loads(text)


def _nearest(value: complex, spectrum) -> int:
    return min(range(len(spectrum)), key=lambda k: abs(value - spectrum[k][0]))


def _union(side1, side2):
    """Spectrum of diag(t1, t2): equal planted values on both sides add up."""
    merged: dict[complex, list[int]] = {}
    for lam, alg, geo in list(side1) + list(side2):
        entry = merged.setdefault(lam, [0, 0])
        entry[0] += alg
        entry[1] += geo
    return [(lam, alg, geo) for lam, (alg, geo) in merged.items()]


def _n(truth: dict) -> int:
    return sum(alg for _, alg, _ in truth["side1"])


def _geo(spectrum, lam: complex) -> int:
    """Geometric multiplicity of lam in a planted spectrum (0 if absent)."""
    k = _nearest(lam, spectrum)
    value, _, geo = spectrum[k]
    return geo if abs(value - lam) < SEPARATION / 4 else 0


def _match_eigenset(res: Result, where: str, reported, truth, tol: float):
    """Reported (value, multiplicity) entries against planted (value, alg, geo)."""
    groups: list[list[tuple[complex, int]]] = [[] for _ in truth]
    for entry in reported:
        value = complex(*entry["value"])
        k = _nearest(value, truth)
        if abs(value - truth[k][0]) > SEPARATION / 4:
            res.fail(f"{where}: spurious eigenvalue {value}")
            continue
        groups[k].append((value, entry["multiplicity"]))
    for (lam, alg, geo), got in zip(truth, groups):
        if len(got) == 1:
            value, mult = got[0]
            res.expect(mult, alg, f"{where}: multiplicity at {lam:.6g}")
            if abs(value - lam) > tol:
                res.fail(f"{where}: eigenvalue {value} is {abs(value - lam):.2e} from planted {lam}")
        elif not got:
            res.fail(f"{where}: planted eigenvalue {lam:.6g} missing")
        elif alg > geo and sum(m for _, m in got) == alg:
            res.fail(f"{where}: defective {lam:.6g} split into {len(got)}", DEFECTIVE_EIGENVALUE)
        else:
            res.fail(f"{where}: {lam:.6g} reported as {got}")
    return groups


def check_spectrum(op: Op, report: dict, res: Result):
    t = op.truth
    tol1 = CLUSTER_TOL * (1.0 + t["frob1"])
    tol2 = CLUSTER_TOL * (1.0 + t["frob2"])
    union = _union(t["side1"], t["side2"])
    res.expect(report["n"], _n(t), "n")
    _match_eigenset(res, "upsilon1", report["upsilon1"], t["side1"], tol1)
    _match_eigenset(res, "upsilon2", report["upsilon2"], t["side2"], tol2)
    _match_eigenset(res, "eigenvalues", report["eigenvalues"], union, max(tol1, tol2))
    res.expect(len(report["eigenspaces"]), len(report["eigenvalues"]), "eigenspace count")
    bound = CLUSTER_TOL * (1.0 + t["frob1"] + t["frob2"])
    dims = [0] * len(union)
    for space in report["eigenspaces"]:
        value = complex(*space["value"])
        res.residual(space["max_residual"], bound, f"eigenspace at {value:.6g}")
        dims[_nearest(value, union)] += space["dimension"]
    for (lam, alg, geo), dim in zip(union, dims):
        if dim != geo:
            defect = DEFECTIVE_EIGENVALUE if geo < dim <= alg else None
            res.fail(f"eigenspace dimension at {lam:.6g}: got {dim}, expected {geo}", defect)


def check_space(op: Op, report: dict, res: Result):
    """modified and eigenspace --lam: verdict, case, dimensions, residual."""
    t = op.truth
    case = t["case"]
    res.expect(report["n"], _n(t), "n")
    res.expect(report["case"], case, "case")
    res.expect(report["is_modified_eigenvalue"], case is not None, "is_modified_eigenvalue")
    if op.command == "eigenspace":
        res.expect(report["is_eigenvalue"], True, "is_eigenvalue")
    if case is None:
        res.expect(report.get("verdict"), "not a modified eigenvalue", "verdict")
        return
    minus, plus = t["kappa"]
    dim_minus = _geo(t["side1"], minus) if case in ("Both", "OnlyMinus") else 0
    dim_plus = _geo(t["side2"], plus) if case in ("Both", "OnlyPlus") else 0
    res.expect(report["dim_minus"], dim_minus, "dim_minus")
    res.expect(report["dim_plus"], dim_plus, "dim_plus")
    res.expect(report["dimension"], dim_minus + dim_plus, "dimension")
    res.expect(report["all_eigenvectors_singular"], case != "Both", "all_eigenvectors_singular")
    res.residual(report["max_residual"], CLUSTER_TOL * (1.0 + t["frob1"] + t["frob2"]), "eigenspace")
    if t["format"] == "json":
        res.expect(len(report["assembled"]), dim_minus + dim_plus, "assembled basis size")
        if case != "Both" and any(c != "SingularNonzero" for c in report["vector_classes"]):
            res.fail("vector_classes: a one-sided eigenvector is not SingularNonzero")


def _entry_class(minus: complex, plus: complex) -> str:
    thr = TOL * max(abs(minus), abs(plus), 1.0)
    small_minus, small_plus = abs(minus) <= thr, abs(plus) <= thr
    if small_minus and small_plus:
        return "Zero"
    if small_plus:
        return "InI1"
    if small_minus:
        return "InI2"
    return "NonSingular"


def check_decompose(op: Op, report: dict, res: Result):
    t = op.truth
    res.expect(report["kind"], t["kind"], "kind")
    if t["kind"] == "scalar":
        minus, plus = t["scalar"]
        res.expect(report["class"], t["class"], "class")
        if t["class"] == "NonSingular":
            inv = complex(*report["inverse"]["idem"][:2]), complex(*report["inverse"]["idem"][2:])
            err = max(abs(inv[0] * minus - 1.0), abs(inv[1] * plus - 1.0))
            if not err <= 1e-12:
                res.fail(f"inverse is off by {err:.2e}")
        else:
            res.expect(report["inverse"], None, "inverse")
        return
    defect = DET_SINGULARITY if not t["singular"] else None
    res.expect(report["operator_singular"], t["singular"], "operator_singular", defect)
    if t["format"] == "json":
        res.expect(report["shape"], [t["n"], t["n"]], "shape")
        want = [
            [_entry_class(complex(a), complex(b)) for a, b in zip(row1, row2)]
            for row1, row2 in zip(t["t1"], t["t2"])
        ]
        res.expect(report["entry_classes"], want, "entry_classes")


def check_explore(op: Op, report: dict, res: Result):
    t = op.truth
    res.expect(report["mode"], "explicit", "mode")
    for key in ("dim_first", "dim_second", "sum_dim", "intersection_dim", "is_direct"):
        res.expect(report[key], t[key], key)


def check_verify(op: Op, report: dict, res: Result):
    t = op.truth
    res.expect(report["seed"], t["seed"], "seed")
    res.expect(report["passed"], True, "passed")
    res.expect(len(report["suites"]), 14, "suite count")
    for suite in report["suites"]:
        res.expect(suite["trials"], t["trials"], f"{suite['name']} trials")
        res.expect(suite["failures"], 0, f"{suite['name']} failures")


CHECKS = {
    "spectrum": check_spectrum,
    "modified": check_space,
    "eigenspace": check_space,
    "decompose": check_decompose,
    "explore-sum": check_explore,
    "verify": check_verify,
}


def check(op: Op, returncode: int, stdout: bytes) -> Result:
    """Exit code and output of one op against its planted truth."""
    res = Result()
    if returncode != 0:
        res.fail(f"exit code {returncode}")
        return res
    try:
        report = _report(op, stdout)
        CHECKS[op.command](op, report, res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        res.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return res
