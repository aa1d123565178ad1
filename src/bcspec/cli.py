"""Command-line front end: JSON in, JSON or plain-text reports out.

Subcommands
-----------
decompose    idempotent/cartesian/real forms, singularity class, inverse
spectrum     component spectra, their union, and the modified-spectrum shape
modified     modified-eigenvalue verdict, case, and constructive basis
eigenspace   eigenspace of a complex eigenvalue (or of a bicomplex kappa)
verify       randomized suites pitting every structural statement against oracles
explore-sum  sum/intersection dimensions of two modified eigenspaces

Inputs are JSON files or inline JSON; every report embeds the tolerances and
seed it used, and identical invocations produce byte-identical output.  Exit
codes: 0 success/verdict, 1 suite failure, 2 parse/validation error (bad
arguments, numbers too large for float arithmetic and a report that cannot be
written included), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import jsonio
from .core import DEFAULT_TOL, IDEAL_CLASSES, Bicomplex, classify_parts
from .errors import BcspecError, ConvergenceError, NonFiniteValueError, NotModifiedEigenvalueError, ParseError
from .linalg import DEFAULT_CLUSTER_TOL, is_singular_matrix
from .operators import classify_vector
from .spectra import ModifiedCase, component_spectra, eigenspace_sum, modified_eigenspace
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, run_sum_search, run_verify

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3


def _default_tol() -> float:
    raw = os.environ.get("BCSPEC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"BCSPEC_TOL is not a number: {raw!r}") from exc
    _check_tolerance("BCSPEC_TOL", value)
    return value


def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParseError(f"{name} must be finite and positive, got {value!r}")


def _load_input(raw: str):
    """Inline JSON (starts with '{' or '[') or a path to a JSON file."""
    text = raw.strip()
    if text.startswith("{") or text.startswith("["):
        return jsonio.loads(text)
    try:
        text = Path(raw).read_text()
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {raw}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input file {raw}: {exc}") from exc
    return jsonio.loads(text)


def _render(report: dict, fmt: str) -> str:
    """The report as JSON or text; a NaN or infinity anywhere in it is an error."""
    try:
        if fmt == "json":
            return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        lines: list[str] = []
        _render_text(report, lines, 0)
        return "\n".join(lines) + "\n"
    except ValueError as exc:  # raised by json.dumps(..., allow_nan=False)
        raise NonFiniteValueError("report holds a non-finite number") from exc


def _render_text(node, lines: list[str], depth: int, label: str | None = None):
    pad = "  " * depth
    if isinstance(node, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for key in sorted(node):
            _render_text(node[key], lines, depth + (label is not None), key)
    elif isinstance(node, list) and any(isinstance(x, (dict, list)) for x in node):
        lines.append(f"{pad}{label}:")
        for i, item in enumerate(node):
            _render_text(item, lines, depth + 1, f"[{i}]")
    else:
        if isinstance(node, (list, float)):
            node = json.dumps(node, allow_nan=False)
        lines.append(f"{pad}{label}: {node}")


def _emit(report: dict, args) -> None:
    text = _render(report, args.format)
    try:
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # a missing directory, a directory as --output, a full device
        raise BcspecError(f"cannot write report: {exc}") from exc


def _eigenset_json(es) -> list[dict]:
    return [
        {"value": jsonio.complex_to_json(v), "multiplicity": m} for v, m in es.values
    ]


# -- commands -------------------------------------------------------------


def _cmd_decompose(args, report: dict) -> int:
    obj = _load_input(args.input)
    tol = args.tol
    if isinstance(obj, dict) and ("idem" in obj or "cart" in obj or "real" in obj):
        x = jsonio.parse_scalar(obj)
        cls = x.classify(tol)
        report["kind"] = "scalar"
        report["scalar"] = jsonio.scalar_to_json(x)
        report["scalar"]["real"] = list(x.to_real())
        report["class"] = cls.value
        if cls.value == "NonSingular":
            inv = x.inverse(tol)
            product = x * inv
            report["inverse"] = jsonio.scalar_to_json(inv)
            report["inverse_residual"] = abs(product.minus - 1.0) + abs(product.plus - 1.0)
        else:
            report["inverse"] = None
            report["note"] = "singular element: no multiplicative inverse"
    else:
        if isinstance(obj, dict) and "t1" in obj:
            op = jsonio.parse_operator(obj)
            minus, plus = op.t1, op.t2
        else:
            matrix = jsonio.parse_matrix(obj)
            minus, plus = matrix.minus, matrix.plus
        report["kind"] = "matrix"
        report["shape"] = list(minus.shape)
        report["minus"] = jsonio.carray_to_json(minus)
        report["plus"] = jsonio.carray_to_json(plus)
        names = [c.value for c in IDEAL_CLASSES]
        report["entry_classes"] = [[names[c] for c in row] for row in classify_parts(minus, plus, tol).tolist()]
        if minus.shape[0] == minus.shape[1]:  # T is singular iff t1 or t2 is (see is_singular_operator)
            report["operator_singular"] = any(is_singular_matrix((minus, plus), tol))
    return EXIT_OK


def _cmd_spectrum(args, report: dict) -> int:
    op = jsonio.parse_operator(_load_input(args.input))
    spectra = component_spectra(op, args.cluster_tol)
    eigenspaces = [
        {
            "value": jsonio.complex_to_json(lam),
            "dimension": space.dim,
            "max_residual": space.max_residual(op),
        }
        for (lam, _), space in zip(spectra.eigenvalues_of_T.values, spectra.eigenspaces())
    ]
    report.update(
        n=op.n,
        upsilon1=_eigenset_json(spectra.upsilon1),
        upsilon2=_eigenset_json(spectra.upsilon2),
        eigenvalues=_eigenset_json(spectra.eigenvalues_of_T),
        modified_spectrum=spectra.symbolic(),
        eigenspaces=eigenspaces,
    )
    return EXIT_OK


def _cmd_space(args, report: dict) -> int:
    """`modified --kappa K` and `eigenspace --kappa K | --lam L`; --lam L asks about kappa = L e1 + L e2.

    Every argument is parsed before the eigensolve, so a malformed one is
    refused first.
    """
    if (args.kappa is None) == (args.lam is None):
        raise ParseError("eigenspace: provide exactly one of --kappa or --lam")
    op = jsonio.parse_operator(_load_input(args.input))
    if args.lam is not None:
        lam = jsonio.parse_complex(jsonio.loads(args.lam), "lam")
        kappa = Bicomplex.from_complex(lam)
        report["eigenvalue"] = jsonio.complex_to_json(lam)
    else:
        kappa = jsonio.parse_scalar(jsonio.loads(args.kappa), "kappa")
    spectra = component_spectra(op, args.cluster_tol)
    report["n"] = op.n
    report["kappa"] = jsonio.scalar_to_json(kappa)
    try:
        space = modified_eigenspace(spectra, kappa)
    except NotModifiedEigenvalueError:
        report.update(is_modified_eigenvalue=False, case=None, verdict="not a modified eigenvalue")
    else:
        report.update(
            is_modified_eigenvalue=True,
            case=space.case.value,
            dimension=space.dim,
            dim_minus=space.minus_basis.shape[1],
            dim_plus=space.plus_basis.shape[1],
            minus_basis=jsonio.carray_to_json(space.minus_basis.T),
            plus_basis=jsonio.carray_to_json(space.plus_basis.T),
            assembled=[jsonio.vector_to_json(v) for v in space.assembled],
            vector_classes=[classify_vector(v, args.tol).value for v in space.assembled],
            all_eigenvectors_singular=space.case is not ModifiedCase.BOTH,
            max_residual=space.max_residual(op),
        )
    if args.lam is not None:
        report["is_eigenvalue"] = report["is_modified_eigenvalue"]
    return EXIT_OK


def _cmd_verify(args, report: dict) -> int:
    result = run_verify(
        seed=args.seed,
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        tol=args.tol,
        cluster_tol=args.cluster_tol,
    )
    report.update(
        seed=args.seed,
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        passed=result.passed,
        suites=[
            {
                "name": s.name,
                "statement": s.statement,
                "trials": args.trials,
                "failures": s.failures,
                "passed": s.passed,
                "failure_detail": s.messages,
            }
            for s in result.suites
        ],
    )
    return EXIT_OK if result.passed else EXIT_SUITE_FAILURE


#: The flags only `explore-sum --search` reads, with their defaults.
_SEARCH_DEFAULTS = {"seed": DEFAULT_SEED, "trials": 100, "n_min": 2, "n_max": 4}


def _cmd_explore_sum(args, report: dict) -> int:
    unread = ("kappa", "kappa2") if args.search else tuple(_SEARCH_DEFAULTS)
    if args.search and args.input is not None:  # a given operator has its own size
        unread += ("n_min", "n_max")
    given = [f"--{name.replace('_', '-')}" for name in unread if getattr(args, name) is not None]
    if given:
        mode = "explicit mode" if not args.search else "--search" if args.input is None else "--search --input"
        raise ParseError(f"explore-sum: {mode} does not read {', '.join(given)}")
    if args.search:
        search = {
            name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in _SEARCH_DEFAULTS.items()
        }
        operator = None
        if args.input is not None:
            operator = jsonio.parse_operator(_load_input(args.input))
        result = run_sum_search(**search, operator=operator, tol=args.tol, cluster_tol=args.cluster_tol)
        report.update(
            mode="search",
            seed=search["seed"],
            trials=search["trials"],
            direct_count=result.direct_count,
            non_direct_count=result.non_direct_count,
            witnesses=result.witnesses,
            note="computed findings for the sampled operators and pairs only",
        )
        if operator is None:  # the counts depend on the sizes sampled
            report.update(n_min=search["n_min"], n_max=search["n_max"])
        return EXIT_OK
    if args.input is None or args.kappa is None or args.kappa2 is None:
        raise ParseError("explore-sum: explicit mode needs --input, --kappa and --kappa2")
    op = jsonio.parse_operator(_load_input(args.input))
    kappa = jsonio.parse_scalar(jsonio.loads(args.kappa), "kappa")
    kappa2 = jsonio.parse_scalar(jsonio.loads(args.kappa2), "kappa2")
    result = eigenspace_sum(component_spectra(op, args.cluster_tol), kappa, kappa2, args.tol)
    report.update(
        mode="explicit",
        kappa=jsonio.scalar_to_json(kappa),
        kappa_prime=jsonio.scalar_to_json(kappa2),
        dim_first=result.dim_first,
        dim_second=result.dim_second,
        sum_dim=result.sum_dim,
        intersection_dim=result.intersection_dim,
        is_direct=result.is_direct,
        note="computed finding for this operator and pair only",
    )
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, needs_input: bool = True, spectral: bool = True):
    if needs_input:
        parser.add_argument("--input", required=True, help="path to a JSON file, or inline JSON")
    parser.add_argument("--tol", type=float, default=None, help="singularity tolerance (default 1e-10, env BCSPEC_TOL)")
    if spectral:
        parser.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL, help="eigenvalue clustering tolerance (default 1e-8)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcspec",
        description="Bicomplex algebra and the spectral theory of operators e1*T1 + e2*T2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="idempotent/cartesian/real forms and singularity class")
    _add_common(p, spectral=False)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("spectrum", help="component spectra and the modified-spectrum shape")
    _add_common(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("modified", help="modified-eigenvalue verdict and eigenspace basis")
    _add_common(p)
    p.add_argument("--kappa", required=True, help="bicomplex scalar as JSON (idem/cart/real)")
    p.set_defaults(fn=_cmd_space, lam=None)

    p = sub.add_parser("eigenspace", help="eigenspace of an eigenvalue (or of a bicomplex kappa)")
    _add_common(p)
    p.add_argument("--kappa", default=None, help="bicomplex scalar as JSON")
    p.add_argument("--lam", default=None, help="complex eigenvalue as [re, im]")
    p.set_defaults(fn=_cmd_space)

    p = sub.add_parser("verify", help="run the randomized oracle suites")
    _add_common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("explore-sum", help="directness of the sum of two modified eigenspaces")
    _add_common(p, needs_input=False)
    p.add_argument("--input", default=None, help="path to a JSON file, or inline JSON")
    p.add_argument("--kappa", default=None)
    p.add_argument("--kappa2", default=None)
    p.add_argument("--search", action="store_true", help="sample kappa pairs instead of an explicit pair")
    for name, default in _SEARCH_DEFAULTS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=None, help=f"--search only (default {default})")
    p.set_defaults(fn=_cmd_explore_sum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        _check_tolerance("--tol", args.tol)
        report: dict = {"command": args.command, "tol": args.tol}
        if hasattr(args, "cluster_tol"):
            _check_tolerance("--cluster-tol", args.cluster_tol)
            report["cluster_tol"] = args.cluster_tol
        code = args.fn(args, report)
        _emit(report, args)
        return code
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BcspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverflowError as exc:  # a magnitude beyond float range, e.g. abs(1e308+1.7e308j)
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
