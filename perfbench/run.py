"""bcspec benchmark: the unmodified CLI end to end, driven by one closed-loop client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bcspec checkout.  Each op is one child process,
``python -m bcspec.cli ...`` with the checkout's ``src`` on PYTHONPATH; the
next op starts only after the previous one has exited, and ops are timed
from outside.  The op list of a workload is a fixed cycle (``workloads.py``);
the run goes through whole cycles until about ``--seconds`` have passed, and
every output is checked against the truth the generator planted
(``checks.py``).  Ops repeated within a run must print byte-identical
stdout.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every op runs under ``traced_cli.py`` instead, and the last
line reports the per-layer metrics.  Scratch files go to ``.perfbench/`` in
the checkout.

Timings are scaled to a fixed machine speed.  The host of a small shared VM
speeds up and slows down by 20-30% over tens of seconds, for every process
alike, so raw wall times of two runs a minute apart differ by more than the
bounds the benchmark must hold.  After every child the benchmark times fixed
reference kernels (``Speed``) on the same CPU, and divides each child's wall
time by the mean slowness they show just before and just after it.  The
record line keeps the raw figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# The reference kernel runs in this process and must use one BLAS thread,
# like the children; the variables only take effect before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
#: No-op CLI spawns per run; setup_s is their median.
SETUP_SPAWNS = 5
#: op_tail_s is this percentile of op latency (nearest rank).
TAIL_PERCENTILE = 75
#: Everything, including the last op, must finish well inside 180 s.
RUN_LIMIT_S = 165.0
#: Nominal times of the reference kernels (LAPACK, small-array dispatch,
#: pure Python), about their medians on a 2-vCPU VM: scaled timings are
#: seconds at the speed where the kernels take this long.
REF_SECONDS = (0.0105, 0.0053, 0.016)

SUITES = (
    "scalar_product_rule", "scalar_singularity", "kernel_image", "operator_singularity",
    "shift_singularity", "eigenvalue_criterion", "modified_criterion", "containment",
    "infinite_family", "cylinder_structure", "eigenspace_structure", "existence",
    "block_spectrum", "similarity_invariance",
)
#: Traced functions reported with calls, total_s and self_s per op.
FUNCTIONS = (
    "linalg.nullspace", "linalg.eigenvalues", "linalg.cluster_points", "linalg.column_space",
    "linalg.is_singular_matrix", "spectra.component_spectra", "spectra.modified_eigenspace",
    "spectra.max_residual", "operators.apply", "oracle.elimination_nullspace",
    "oracle.brute_modified_eigenspace",
)
GROUPS = {f: (f,) for f in FUNCTIONS}
GROUPS["jsonio.parse"] = tuple(
    f"jsonio.{f}" for f in ("loads", "parse_complex", "parse_scalar", "parse_vector", "parse_matrix", "parse_operator")
)
GROUPS["jsonio.render"] = tuple(
    f"jsonio.{f}_to_json" for f in ("complex", "scalar", "cvector", "cmatrix", "vector", "matrix", "operator")
)
for _name in ("cli.main", "operators.construct", "oracle.generator", "core.classify"):
    GROUPS[_name] = (_name,)
for _suite in SUITES:
    GROUPS[f"verify.suite.{_suite}"] = (f"verify.suite.{_suite}",)

#: Spans a traced run of each workload must record at least once.
REQUIRED = {
    "spectrum-large": (
        "cli.main", "jsonio.parse_operator", "linalg.eigenvalues", "linalg.cluster_points",
        "linalg.nullspace", "spectra.component_spectra", "spectra.modified_eigenspace",
        "spectra.max_residual",
    ),
    "verify-small": (
        "cli.main", "verify.run_verify", "oracle.generator", "oracle.elimination_nullspace",
        "oracle.brute_modified_eigenspace", "operators.apply", "operators.construct",
        "linalg.column_space", "linalg.is_singular_matrix", "core.classify",
    ) + tuple(f"verify.suite.{s}" for s in SUITES),
    "query-mix": (
        "cli.main", "jsonio.loads", "jsonio.parse_operator", "jsonio.parse_scalar",
        "jsonio.vector_to_json", "spectra.component_spectra", "spectra.modified_eigenspace",
        "spectra.eigenspace_sum", "linalg.column_space", "linalg.is_singular_matrix",
        "core.classify",
    ),
}
#: Commands that analyse exactly one operator's spectrum.
SPECTRAL_COMMANDS = ("spectrum", "modified", "eigenspace", "explore-sum")

PROBE = """
import glob, json, os, sys, ctypes
import numpy, scipy, bcspec.cli
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
print(json.dumps({"bcspec_file": bcspec.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": threads}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on a small shared box OpenBLAS threads at n <= 160 cost
    # about 3x more wall time and make it depend on the other tenants.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Byte-compiled modules are cached inside the checkout, as for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Speed:
    """Reference kernels, timed after every child, that mix the work the ops do:
    a LAPACK eigensolve, many calls on tiny arrays, and a pure-Python loop."""

    def __init__(self):
        gen = np.random.Generator(np.random.PCG64(0))
        self.big = gen.standard_normal((96, 96)) + 1j * gen.standard_normal((96, 96))
        self.small = [gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)) for _ in range(100)]
        self.last = self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        np.linalg.eigvals(self.big)
        t1 = time.perf_counter()
        for m in self.small:
            np.linalg.eigvals(m)
            np.linalg.qr(m)
        t2 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        t3 = time.perf_counter()
        times = (t1 - t0, t2 - t1, t3 - t2)
        return sum(t / ref for t, ref in zip(times, REF_SECONDS)) / len(times)

    def factor(self) -> float:
        """Slowness of the machine around the child that just exited (1 = nominal)."""
        after = self.sample()
        factor = (self.last + after) / 2.0
        self.last = after
        return factor


class Child:
    """Exit status, wall time, max RSS and stdout of one finished child process.

    ``seconds`` is the raw wall time; ``scaled`` divides it by ``factor``, the
    machine's slowness while it ran.
    """

    def __init__(self, argv, cwd: Path, out: Path, env: dict, timeout: float):
        self.tag = out.stem
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd, env=env)
            usage = _wait(proc, timeout)
            self.seconds = time.perf_counter() - start
        self.returncode = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out.read_bytes()
        self.stderr = out.with_suffix(".err").read_bytes()


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with its rusage; kill it if it outlives the timeout."""

    def expire(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.dir = WORK / workload
        self.env = child_env()
        self.unexpected: list[str] = []
        self.speed = Speed()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], tag: str) -> Child:
        if self.remaining() <= 0:
            raise BenchError("out of time before the run could finish")
        child = Child(argv, self.dir, self.dir / f"{tag}.out", self.env, self.remaining())
        child.factor = self.speed.factor()
        child.scaled = child.seconds / child.factor
        return child

    def probe(self) -> dict:
        """Environment record; also fills the byte-code cache before timing."""
        child = self.spawn([sys.executable, "-c", PROBE], "probe")
        if child.returncode != 0:
            raise BenchError(f"cannot import bcspec from the checkout: {child.stderr.decode()[-400:]}")
        env = json.loads(child.stdout)
        src = (ROOT / "src").resolve()
        if src not in Path(env["bcspec_file"]).resolve().parents:
            raise BenchError(f"bcspec resolves to {env['bcspec_file']}, outside {src}")
        env["nproc"] = os.cpu_count()
        return env

    def setup(self) -> list[Child]:
        """CLI invocations that do no work: interpreter start plus every import."""
        argv = [sys.executable, "-m", "bcspec.cli", "--help"]
        children = [self.spawn(argv, f"setup-{k}") for k in range(SETUP_SPAWNS)]
        for child in children:
            if child.returncode != 0:
                raise BenchError(f"bcspec --help failed: {child.stderr.decode()[-400:]}")
        return children

    def run_op(self, op: workloads.Op, index: int, tag: str) -> Child:
        if self.trace:
            script = str(Path(__file__).resolve().parent / "traced_cli.py")
            argv = [sys.executable, script, f"trace/{tag}.npz", str(index), *op.argv]
        else:
            argv = [sys.executable, "-m", "bcspec.cli", *op.argv]
        return self.spawn(argv, tag)

    def loop(self, ops: list[workloads.Op], cycle: int) -> list[tuple[int, Child]]:
        """Whole cycles, stopping at the cycle boundary nearest to --seconds."""
        done: list[tuple[int, Child]] = []
        start = time.perf_counter()
        cycles = 0
        while True:
            for _ in range(cycle):
                index = len(done) % len(ops)
                done.append((index, self.run_op(ops[index], index, f"op-{len(done):04d}")))
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles / 2 >= self.seconds:
                return done


def throughput(latencies: list[float], cycle: int) -> float:
    """Median over whole cycles of ops completed per second of op time."""
    chunks = [latencies[k : k + cycle] for k in range(0, len(latencies), cycle)]
    return statistics.median(len(c) / sum(c) for c in chunks)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def pin_cpu() -> int | None:
    """Run this process and its children on one CPU, so the reference kernel
    and the ops are timed on the same one.  Returns it, or None if not allowed."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bcspec" / "cli.py").is_file():
        print(f"error: no bcspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    try:
        result, record = bench(Run(args.workload, args.seed, args.seconds, bool(args.trace)))
        record["cpu"] = cpu
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def bench(run: Run) -> tuple[dict, dict]:
    shutil.rmtree(run.dir, ignore_errors=True)
    (run.dir / "trace").mkdir(parents=True)
    ops, cycle = workloads.build(run.workload, run.seed)
    digest = workloads.write_inputs(ops, run.dir)
    env = run.probe()
    setup = [] if run.trace else run.setup()

    measured = run.loop(ops, cycle)
    outcomes = list(measured)
    # Determinism: every op that ran more than once must print the same bytes;
    # a command with no repeated op gets its first op run once more.
    repeated = {i for i, n in Counter(i for i, _ in measured).items() if n > 1}
    for command in dict.fromkeys(op.command for op in ops):
        indices = [i for i, _ in measured if ops[i].command == command]
        if indices and not repeated.intersection(indices):
            index = indices[0]
            outcomes.append((index, run.run_op(ops[index], index, f"repeat-{index:04d}")))

    first: dict[int, bytes] = {}
    verdicts: dict[tuple[int, bytes], checks.Result] = {}  # repeats of an op check once
    failed_ops = unexpected_ops = 0
    defects: Counter = Counter()
    residual_ratio = 0.0
    for index, child in outcomes:
        op = ops[index]
        key = hashlib.sha256(child.stdout).digest() + bytes([child.returncode & 0xFF])
        if (index, key) not in verdicts:
            verdicts[index, key] = checks.check(op, child.returncode, child.stdout)
        result = verdicts[index, key]
        problems = list(result.problems)
        if first.setdefault(index, key) != key:
            problems.append((None, "stdout differs from an earlier run of the same op"))
        if result.residual_ratio is not None:
            residual_ratio = max(residual_ratio, result.residual_ratio)
        if problems:
            failed_ops += 1
            defects.update(d for d, _ in problems if d is not None)
            if any(d is None for d, _ in problems):
                unexpected_ops += 1
                if len(run.unexpected) < 5:
                    msg = "; ".join(m for d, m in problems if d is None)[:300]
                    run.unexpected.append(f"{op.label}: {msg} {child.stderr.decode()[-200:]}".strip())

    raw = [child.seconds for _, child in measured]
    latencies = [child.scaled for _, child in measured]
    by_label: dict[str, list[float]] = {}
    for (index, _), t in zip(measured, latencies):
        by_label.setdefault(ops[index].label, []).append(t)
    attempted = len(outcomes)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "environment": env,
        "input_digest": digest,
        "ops_measured": len(measured),
        "op_count_beyond_tail": len(measured) - math.ceil(TAIL_PERCENTILE / 100.0 * len(measured)),
        "op_seconds": {label: statistics.median(t) for label, t in by_label.items()},
        "speed_factor": statistics.median(child.factor for _, child in measured),
        "raw": {
            "setup_s": statistics.median(c.seconds for c in setup) if setup else None,
            "op_p50_s": statistics.median(raw),
            "op_tail_s": percentile(raw, TAIL_PERCENTILE),
        },
        "known_defect_hits": dict(defects),
        "unexpected": run.unexpected,
    }
    if run.trace:
        metrics, trace_ok = layer_metrics(run, ops, cycle, measured, residual_ratio, record)
    else:
        trace_ok = True
        metrics = {
            "setup_s": (statistics.median(c.scaled for c in setup), "s"),
            "ops_per_s": (throughput(latencies, cycle), "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (percentile(latencies, TAIL_PERCENTILE), "s"),
            "peak_rss_mb": (max(child.rss_mb for _, child in measured), "MB"),
            "pass_frac": (1.0 - failed_ops / attempted, "ratio"),
        }
    result = {
        "correct": unexpected_ops == 0 and trace_ok,
        "attempted": attempted,
        "failed": unexpected_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def layer_metrics(run: Run, ops, cycle: int, measured, residual_ratio: float, record: dict) -> tuple[dict, bool]:
    """Per-layer metrics, per measured op, from the spans the traced children wrote."""
    layers = Layers(GROUPS)
    name_calls: Counter = Counter()
    import_s = []
    spectral_ops = spectral_calls = 0
    missing_files = 0
    for index, child in measured:
        path = run.dir / "trace" / f"{child.tag}.npz"
        if not path.is_file():
            missing_files += 1
            continue
        with np.load(path, allow_pickle=False) as trace:
            trace = {k: trace[k] for k in trace.files}
        counts = np.bincount(trace["name"], minlength=len(trace["names"]))
        per_name = {str(s): int(c) for s, c in zip(trace["names"], counts)}
        name_calls.update(per_name)
        layers.add(trace, 1.0 / child.factor)
        import_s.append(float(trace["import_s"]) / child.factor)
        if ops[index].command in SPECTRAL_COMMANDS:
            spectral_ops += 1
            spectral_calls += per_name.get("spectra.component_spectra", 0)

    n = len(measured)
    latencies = [child.scaled for _, child in measured]
    metrics: dict[str, tuple[float, str]] = {}
    for group in (*FUNCTIONS, "jsonio.parse", "jsonio.render"):
        metrics[f"{group}.calls"] = (layers.calls[group] / n, "count")
        metrics[f"{group}.total_s"] = (layers.total[group] / n, "s")
        metrics[f"{group}.self_s"] = (layers.self[group] / n, "s")
    metrics["cli.main.total_s"] = (layers.total["cli.main"] / n, "s")
    metrics["cli.main.self_s"] = (layers.self["cli.main"] / n, "s")
    metrics["operators.constructions"] = (layers.calls["operators.construct"] / n, "count")
    metrics["oracle.generator.calls"] = (layers.calls["oracle.generator"] / n, "count")
    metrics["core.classify.calls"] = (layers.calls["core.classify"] / n, "count")
    for suite in SUITES:
        metrics[f"verify.suite.{suite}.total_s"] = (layers.total[f"verify.suite.{suite}"] / n, "s")
    metrics["process.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["spectra.component_spectra.per_operator"] = (
        spectral_calls / spectral_ops if spectral_ops else 0.0,
        "ratio",
    )
    metrics["spectra.worst_residual_ratio"] = (residual_ratio, "ratio")
    metrics["trace.ops_per_s"] = (throughput(latencies, cycle), "1/s")
    metrics["trace.spans_per_op"] = (layers.spans / n, "count")

    uncalled = [name for name in REQUIRED[run.workload] if name_calls[name] == 0]
    problems = []
    if missing_files:
        problems.append(f"{missing_files} traced ops wrote no spans")
    if uncalled:
        problems.append(f"required spans never recorded: {', '.join(uncalled)}")
    if layers.bad_nesting:
        problems.append(f"{layers.bad_nesting} spans fall outside their parent")
    record["trace_problems"] = problems
    return metrics, not problems


if __name__ == "__main__":
    sys.exit(main())
