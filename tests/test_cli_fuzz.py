"""Fuzz of the CLI error contract: every input ends in exit code 0, 2 or 3.

Each command runs in process on generated JSON-like inputs: wrong types,
ragged rows, non-square operators, huge and tiny numbers, equal kappas, bad
size ranges and bad tolerances.  No exception may escape `main`; argparse
rejections count as exit code 2, and no report may print NaN or infinity.
Exit code 1 (a verify suite failed) is not an allowed outcome either, so
verify runs at its default tolerances.  The examples are derandomized, so
every run draws the same ones.  Operators, kappas and lams with entries at
the top of the float range hold the valid runs to a stricter rule: stderr
stays empty on exit 0 (no RuntimeWarning) and holds one `error:` line
otherwise.
"""

import contextlib
import io
import json
import re
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from bcspec.cli import main

FUZZ = settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")

extreme = st.sampled_from([1e308, -1e308, 1.7e308, 1e-308, 5e-324, -0.0, float("nan"), float("inf")])
number = st.one_of(st.integers(-3, 3), st.floats(-10, 10), extreme)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}), st.just([]))
entry = st.one_of(st.lists(number, min_size=2, max_size=2), number, junk)
size = st.integers(1, 4)


@st.composite
def cmatrices(draw, rows=None, cols=None):
    rows = draw(size) if rows is None else rows
    cols = draw(size) if cols is None else cols
    matrix = [[draw(st.lists(number, min_size=2, max_size=2)) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()) and draw(st.booleans()):
        row = draw(st.integers(0, rows - 1))
        matrix[row] = draw(st.lists(entry, max_size=5))  # ragged or mistyped row
    return matrix


@st.composite
def operators(draw):
    """Mostly well-formed square operators, so the spectral code runs; some are not."""
    n = draw(size)
    shape = draw(st.sampled_from(["square", "square", "square", "rectangular", "mismatched"]))
    t1 = draw(cmatrices(n, n if shape == "square" else draw(size)))
    t2 = draw(cmatrices(n, n)) if shape == "mismatched" else draw(cmatrices(len(t1), len(t1[0])))
    op = {"t1": t1, "t2": t2}
    if draw(st.booleans()):
        op["n"] = draw(st.one_of(st.just(n), st.integers(-1, 5), junk))
    return draw(st.one_of(st.just(op), st.just(op), st.just(op), junk, st.lists(entry, max_size=3)))


scalars = st.builds(
    lambda form, quad: {form: quad},
    st.sampled_from(["idem", "cart", "real", "bogus"]),
    st.one_of(st.lists(number, min_size=4, max_size=4), st.lists(entry, max_size=5)),
)
tolerance = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-8", "1e300", "x"])


def _flags(tol, cluster_tol, fmt) -> list[str]:
    argv = ["--format", fmt]
    if tol is not None:
        argv.append(f"--tol={tol}")
    if cluster_tol is not None:
        argv.append(f"--cluster-tol={cluster_tol}")
    return argv


common = st.builds(
    _flags, st.one_of(st.none(), tolerance), st.one_of(st.none(), tolerance), st.sampled_from(["json", "text"])
)


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert not NON_FINITE.search(out.getvalue()), argv


@FUZZ
@given(st.one_of(scalars, operators(), st.lists(st.lists(scalars, max_size=3), max_size=3), junk), common)
def test_decompose(obj, flags):
    _run(["decompose", "--input", json.dumps(obj), *flags])


@FUZZ
@given(operators(), common)
@example({"t1": [[[True, 0]]], "t2": [[[1, 0]]]}, [])  # a boolean is not a number: exit 2
def test_spectrum(op, flags):
    _run(["spectrum", "--input", json.dumps(op), *flags])


@FUZZ
@given(operators(), scalars, common)
def test_modified(op, kappa, flags):
    _run(["modified", "--input", json.dumps(op), "--kappa", json.dumps(kappa), *flags])


@FUZZ
@given(operators(), st.one_of(st.none(), scalars), st.one_of(st.none(), entry), common)
def test_eigenspace(op, kappa, lam, flags):
    argv = ["eigenspace", "--input", json.dumps(op), *flags]
    if kappa is not None:
        argv += ["--kappa", json.dumps(kappa)]
    if lam is not None:
        argv += ["--lam", json.dumps(lam)]
    _run(argv)


@FUZZ
@given(operators(), scalars, st.one_of(st.none(), scalars), common)
def test_explore_sum(op, kappa, kappa2, flags):
    kappa2 = kappa if kappa2 is None else kappa2  # equal kappas
    _run(
        ["explore-sum", "--input", json.dumps(op), "--kappa", json.dumps(kappa), "--kappa2", json.dumps(kappa2), *flags]
    )


ranges = st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 3))


@settings(FUZZ, max_examples=25)
@given(ranges, st.one_of(st.none(), operators()), common)
def test_explore_sum_search(nrange, op, flags):
    n_min, n_max, seed = nrange
    argv = ["explore-sum", "--search", "--trials", "2", "--seed", str(seed), *flags]
    argv += [f"--n-min={n_min}", f"--n-max={n_max}"]
    if op is not None:
        argv += ["--input", json.dumps(op)]
    _run(argv)


bad_tolerance = st.one_of(st.none(), st.sampled_from(["nan", "inf", "-1", "0", "x"]))


@settings(FUZZ, max_examples=15)
@given(ranges, bad_tolerance, bad_tolerance, st.sampled_from(["json", "text"]))
def test_verify(nrange, tol, cluster_tol, fmt):
    n_min, n_max, seed = nrange
    argv = ["verify", "--trials", "1", "--seed", str(seed), f"--n-min={n_min}", f"--n-max={n_max}"]
    _run(argv + _flags(tol, cluster_tol, fmt))


top = st.sampled_from([[0, 0], [1, 0], [0, 1], [1e308, 0], [-1e308, 0], [1.7e308, 0], [1e200, 0], [0, 1e308]])
top_kappa = st.builds(lambda minus, plus: {"idem": minus + plus}, top, top)
#: command -> flag -> strategy of its drawn value
QUERIES = {
    "spectrum": {},
    "modified": {"--kappa": top_kappa},
    "eigenspace": {"--lam": top},
    "decompose": {},
    "explore-sum": {"--kappa": top_kappa, "--kappa2": top_kappa},
}


@st.composite
def top_of_range_queries(draw):
    command = draw(st.sampled_from(sorted(QUERIES)))
    n = draw(st.integers(1, 3))
    op = {t: [[draw(top) for _ in range(n)] for _ in range(n)] for t in ("t1", "t2")}
    argv = [command, "--input", json.dumps(op)]
    for flag, values in QUERIES[command].items():
        argv += [flag, json.dumps(draw(values))]
    return argv


def _spectrum(op) -> list[str]:
    return ["spectrum", "--input", json.dumps(op)]


@settings(FUZZ, max_examples=100)
@given(top_of_range_queries())
@example(_spectrum({"t1": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "t2": [[[0, 0], [1e308, 0]], [[0, 0], [0, 1]]]}))
@example(_spectrum({"t1": [[[-1e308, 0]]], "t2": [[[1.7e308, 0]]]}))
@example(  # t - kappa*I and t u - kappa u overflow in parts, yet the run exits 0
    [
        "modified",
        "--input",
        '{"t1":[[[0,1e308],[1.7e308,0],[0,1e308]],[[1e308,0],[-1e308,0],[1,0]],[[0,1],[-1e308,0],[1,0]]],'
        '"t2":[[[1,0],[0,0],[0,1]],[[0,1],[-1e308,0],[-1e308,0]],[[0,1e308],[-1e308,0],[1,0]]]}',
        "--kappa",
        '{"idem":[1e308,0,-1e308,-1e308]}',
    ]
)
def test_top_of_range(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (0, 2, 3), (argv, code, stderr)
    if code == 0:
        assert stderr == "", argv
    else:
        assert re.fullmatch(r"error: [^\n]*\n", stderr), (argv, stderr)
