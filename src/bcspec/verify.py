"""Randomized suites checking every structural statement against an oracle route.

Each suite pits the primary implementation against a structure-blind
computation (cartesian arithmetic, |z1**2 + z2**2|, Gauss-Jordan elimination
on the components or the block embedding) over seeded random trials.  A
failure message always carries the (seed, suite, trial) key that replays it
bit-identically.

Trials draw alone and are solved per stack.  run_verify hands each suite's
runner (see _suite) one block of trials at a time.  The runner draws each
trial's operator from its own Rng(seed, (suite, trial)).child(0), so replay
keys are unchanged, analyses the block one stack per (n, profile), and
answers the block's oracle requests with one stacked call per matrix shape.

Every threshold of the primary rules and oracle routes, and where it is computed (A is m x n,
||.|| the Frobenius norm, b the larger |z^±|, B = diag(t1, t2), B_kappa = B - diag(kappa^- I, kappa^+ I)):

  scalar part zero       |z^±| <= tol * max(|z^-|, |z^+|, 1)              core._moduli
  rank: sigma counts     sigma > tol * max(||A||, 1) * max(m, n)          linalg._svd
  cluster merge, member  |a - b| <= cluster_tol * (1 + ||A||)             linalg.eigenvalues
  cartesian singular     |z1^2 + z2^2| <= tol * max(b, 1) * b             oracle.classify_cartesian
  block eigenspace       pivot <= cluster_tol * (1 + ||B_kappa||)         oracle.shifted_block
  elimination singular   pivot <= tol * max(||A||, 1) * max(m, n)         _singular_by_elimination
  raw cylinder           |kappa^± - lambda| <= cluster_tol * (1 + ||t||)  _raw_cylinder
  residual bound         cluster_tol * (1 + ||t1|| + ||t2||)              _residual_bound
  block kernel           pivot <= tol * (1 + ||B||) * max(2m, 2n)         _suite_kernel_image
  block spectrum         |mu - lambda| <= cluster_tol * (1 + ||B||)       _suite_block_spectrum
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_TOL, Bicomplex, E1, E2, ONE
from .linalg import DEFAULT_CLUSTER_TOL, EigenSet, frobenius, is_singular_matrix
from .operators import (
    BicomplexOperator,
    VectorClass,
    apply,
    assemble_pair_basis,
    classify_vector,
    image,
    is_singular_operator,
    kernel,
)
from .oracle import (
    Rng,
    block_embed,
    brute_modified_eigenspace,
    cartesian_mul,
    classify_cartesian,
    complex_normal,
    elimination_nullspace,
    random_operator,
    random_operators,
    random_vector,
    shifted_block,
)
from .oracle import residual as residual_norm
from .spectra import (
    EigenspaceSumReport,
    ModifiedCase,
    component_spectra,
    eigenspace_sum,
    modified_eigenspace,
    stacked_spectra,
)
from .errors import InvalidArgumentError

DEFAULT_SEED = 20240901
DEFAULT_TRIALS = 500
#: The sizes n_min..n_max run_verify cycles through by default, and those run_sum_search draws.
DEFAULT_N_MIN, DEFAULT_N_MAX = 1, 6
SEARCH_N_MIN, SEARCH_N_MAX = 2, 4
#: Failure messages kept per suite in a verify report.
MAX_MESSAGES = 5
#: Non-direct witnesses kept in a sum-search report.
MAX_WITNESSES = 10
#: Most trials whose operators are drawn and analysed together.
_BLOCK_TRIALS = 256
#: Most matrix entries (2 n**2 per trial) drawn and analysed together, unless one trial alone has more.
_BLOCK_ENTRIES = 1 << 18


@dataclass
class SuiteResult:
    name: str
    statement: str
    failures: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class VerifyReport:
    suites: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


class _Check:
    """Collects failures for one trial; a message, str.format of its arguments, is made only on failure and keeps the replay key."""

    def __init__(self, key: str):
        self.key = key
        self.messages: list[str] = []

    def __call__(self, condition: bool, message: str, *args):
        if not condition:
            self.messages.append(f"[{self.key}] {message.format(*args)}")


def _far_scalar(gen, *eigensets: EigenSet) -> complex:
    """A complex draw at distance > 1e-3 from every listed spectrum.

    The distance, math.hypot of the part differences, is within an ulp of abs, and inf where abs raises."""
    c = complex(complex_normal(gen)) * 2.0
    for _ in range(100):
        if all(math.hypot(c.real - v.real, c.imag - v.imag) > 1e-3 for es in eigensets for v, _ in es.values):
            return c
        c = c + 2.5
    return c


def _singular_by_elimination(matrices, tol: float):
    """Singularity of each matrix by Gauss-Jordan elimination, at the primary rank threshold: one round of requests, for yield from."""
    bases = yield [(a, tol * max(np.linalg.norm(a), 1.0) * max(a.shape)) for a in matrices]
    return [basis.shape[1] > 0 for basis in bases]


def _shifted_singular(op: BicomplexOperator, kappas, tol: float) -> list[bool]:
    """[is_singular_operator(shift(op, kappa), tol) for kappa in kappas], from one rank test of the (2k, n, n) stack.

    The stack is [t1 - kappa^- I, t2 - kappa^+ I, ...], each side built as
    shift builds it; is_singular_matrix scales and thresholds each matrix
    alone, so every verdict is the one the operator's own test gives.
    """
    eye = np.eye(op.n, dtype=np.complex128)
    kappas = [k if isinstance(k, Bicomplex) else Bicomplex.from_complex(k) for k in kappas]
    sides = is_singular_matrix([t - z * eye for k in kappas for t, z in ((op.t1, k.minus), (op.t2, k.plus))], tol)
    return [a or b for a, b in zip(sides[::2], sides[1::2])]


def _raw_cylinder(op: BicomplexOperator, cluster_tol: float, kappas: list[Bicomplex]) -> list[bool]:
    """Membership of each kappa in the modified spectrum, kappa^- near a raw (unclustered) eigenvalue of t1 or kappa^+ of t2.

    No EigenSet is involved; one broadcast per side answers every kappa.
    """
    near = [
        np.abs(np.linalg.eigvals(t) - np.array(z)[:, None]).min(axis=1) <= cluster_tol * (1.0 + np.linalg.norm(t))
        for t, z in ((op.t1, [k.minus for k in kappas]), (op.t2, [k.plus for k in kappas]))
    ]
    return (near[0] | near[1]).tolist()


def _check_run(seed: int, trials: int) -> None:
    if trials < 1:
        raise InvalidArgumentError("trials must be at least 1")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")


def _check_sizes(n_min: int, n_max: int) -> None:
    if not (1 <= n_min <= n_max):
        raise InvalidArgumentError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")


def _blocks(sizes: list[int]):
    """Split trials 0..len(sizes)-1, trial i of size sizes[i], into consecutive ranges.

    A range holds at most _BLOCK_TRIALS trials and, unless it is one trial,
    at most _BLOCK_ENTRIES matrix entries, 2 n**2 per trial.
    """
    start = 0
    while start < len(sizes):
        stop, entries = start + 1, 2 * sizes[start] ** 2
        while stop < len(sizes) and stop - start < _BLOCK_TRIALS:
            entries += 2 * sizes[stop] ** 2
            if entries > _BLOCK_ENTRIES:
                break
            stop += 1
        yield range(start, stop)
        start = stop


def _analyse(rngs: list[Rng], sizes: list[int], profiles: tuple[str, ...], cluster_tol: float) -> list:
    """(planted, report) for each trial of a block: its operator of size sizes[i], drawn on rngs[i].child(0), and its analysis.

    Trial t draws profiles[t % len(profiles)].  The trials of one (n, profile)
    are drawn by one random_operators call and analysed by one stacked_spectra
    call, bit for bit what random_operator and component_spectra give each.
    """
    groups: dict[tuple[int, str], list[int]] = {}
    for i, (rng, n) in enumerate(zip(rngs, sizes)):
        groups.setdefault((n, profiles[rng.stream[-1] % len(profiles)]), []).append(i)
    analysed = [None] * len(rngs)
    for (n, profile), members in groups.items():
        planted = random_operators([rngs[i].child(0) for i in members], n, profile)
        for i, pair in zip(members, zip(planted, stacked_spectra([p.operator for p in planted], cluster_tol))):
            analysed[i] = pair
    return analysed


def _residual_bound(op: BicomplexOperator, cluster_tol: float) -> float:
    return cluster_tol * (1.0 + frobenius(op.t1) + frobenius(op.t2))


def _match_multisets(left: list[complex], right: list[complex], tol_abs: float) -> bool:
    """Greedy nearest-neighbour matching; True when every pair lands within tol_abs."""
    if len(left) != len(right):
        return False
    remaining = list(right)
    for a in sorted(left, key=lambda z: (z.real, z.imag)):
        best = min(range(len(remaining)), key=lambda i: abs(a - remaining[i]), default=None)
        if best is None or abs(a - remaining[best]) > tol_abs:
            return False
        del remaining[best]
    return True


# -- suites --------------------------------------------------------------

#: (name, statement, fn) per suite, in definition order; a trial's Rng is keyed by its suite's index here.
SUITES: list[tuple[str, str, object]] = []


def _answer(requests: list[list[tuple[np.ndarray, float]]]) -> list[list[np.ndarray]]:
    """The nullspace basis of each (matrix, threshold) request of each list, from one stacked elimination_nullspace call per matrix shape."""
    flat = [request for asked in requests for request in asked]
    bases = {}
    for shape in dict.fromkeys(a.shape for a, _ in flat):
        members = [i for i, (a, _) in enumerate(flat) if a.shape == shape]
        bases.update(zip(members, elimination_nullspace(np.array([flat[i][0] for i in members]), [flat[i][1] for i in members])))
    answers = (bases[i] for i in range(len(flat)))
    return [[next(answers) for _ in asked] for asked in requests]


def _suite(statement: str, profiles: tuple[str, ...] = ()):
    """Register the decorated _suite_<name> function under <name> with the statement it checks, as a runner of a block of trials.

    fn checks one trial; with profiles the runner first draws and analyses
    the block (see _analyse) and fn also takes the trial's (planted, report).
    A trial that asks the elimination oracle is a generator that yields one
    list of (matrix, threshold) requests and is sent their bases; the runner
    runs every trial to its request and answers the block's requests with
    one _answer call.
    """

    def register(fn):
        name = fn.__name__.removeprefix("_suite_")

        def run(checks, rngs, sizes, tol, cluster_tol):
            pairs = _analyse(rngs, sizes, profiles, cluster_tol) if profiles else repeat(())
            trials = [fn(*args, tol, cluster_tol, *pair) for *args, pair in zip(checks, rngs, sizes, pairs)]
            asking = [trial for trial in trials if trial is not None]
            for trial, answer in zip(asking, _answer([trial.send(None) for trial in asking])):
                with suppress(StopIteration):
                    trial.send(answer)
                    raise RuntimeError(f"a trial of suite {name} asked the elimination oracle a second time")

        SUITES.append((name, statement, run))
        return fn

    return register


#: The profile of the seven suites that check the eigenvalue and modified-eigenvalue theorems.
_SHARED = ("shared-eigenvalue",)


@_suite("x*y = (x^- y^-) e1 + (x^+ y^+) e2, matching cartesian multiplication")
def _suite_scalar_product_rule(check, rng, n, tol, cluster_tol):
    gen = rng.generator()
    scale = 10.0 ** gen.uniform(0.0, 3.0)
    x, y = (Bicomplex(complex(minus), complex(plus)) for minus, plus in complex_normal(gen, (2, 2)) * scale)
    direct = x * y
    via_cart = cartesian_mul(x, y)
    mag = max(abs(x.minus), abs(x.plus)) * max(abs(y.minus), abs(y.plus))
    bound = 1e-12 * (1.0 + mag)
    check(abs(direct.minus - via_cart.minus) <= bound, "minus component differs between routes")
    check(abs(direct.plus - via_cart.plus) <= bound, "plus component differs between routes")
    check((E1 * E2).is_zero(), "e1*e2 must vanish")
    check((E1 + E2 - ONE).is_zero(), "e1+e2 must be 1")
    check((x * y - y * x).is_zero(tol), "product must commute")


@_suite("x is singular iff x lies in I1 ∪ I2 iff |z1^2 + z2^2| vanishes")
def _suite_scalar_singularity(check, rng, n, tol, cluster_tol):
    gen = rng.generator()
    offset = 10.0 ** gen.uniform(-2.0, 2.0)
    first, base = (Bicomplex(complex(minus), complex(plus)) for minus, plus in complex_normal(gen, (2, 2)))
    # a random scalar, and exact members of I1 and of I2
    candidates = [first, Bicomplex(base.minus, 0.0), Bicomplex(0.0, base.plus)]
    # one component parked a controlled distance from the threshold
    big = base.minus if abs(base.minus) > 0 else 1.0 + 0j
    small = Bicomplex(big, 0.0).singular_threshold(tol) * offset
    candidates.append(Bicomplex(big, small))
    for x in candidates:
        z1, z2 = x.to_cartesian()
        via_components = x.classify(tol)
        via_cartesian = classify_cartesian(z1, z2, tol)
        small_mag = min(abs(x.minus), abs(x.plus))
        thr = x.singular_threshold(tol)
        in_band = 0.1 * thr <= small_mag <= 10.0 * thr
        if not in_band:
            check(
                via_components == via_cartesian,
                "classification split outside the guard band: {} vs {} for {}",
                via_components.value, via_cartesian.value, x,
            )


@_suite("ker(e1 T1 + e2 T2) = ker T1 xe ker T2 and Im(e1 T1 + e2 T2) = Im T1 xe Im T2")
def _suite_kernel_image(check, rng, n, tol, cluster_tol):
    trial = rng.stream[-1]
    if trial % 4 == 3:
        # rectangular operators participate in kernel/image only
        gen = rng.generator()
        op = BicomplexOperator(complex_normal(gen, (n + 1, n)), complex_normal(gen, (n + 1, n)))
    else:
        profile = "rank-deficient" if trial % 2 == 0 else "generic"
        planted = random_operator(rng.child(0), n, profile)
        op = planted.operator
        if profile == "rank-deficient" and trial % 4 == 2:
            op = BicomplexOperator(op.t2, op.t1)  # exercise deficiency on both sides
    k1, k2 = kernel(op, tol)
    impl_dim = k1.shape[1] + k2.shape[1]
    block = block_embed(op)
    (brute,) = yield [(block, tol * (1.0 + np.linalg.norm(block)) * max(block.shape))]
    check(
        impl_dim == brute.shape[1],
        "kernel dimension {} != block-elimination dimension {}", impl_dim, brute.shape[1],
    )
    bound = _residual_bound(op, cluster_tol)
    for v in assemble_pair_basis((k1, k2)):
        check(apply(op, v).norm() <= bound, "assembled kernel vector not annihilated")
    i1, i2 = image(op, tol)
    cols = op.shape[1]
    check(i1.shape[1] + k1.shape[1] == cols, "rank-nullity broken on t1: {}+{} != {}", i1.shape[1], k1.shape[1], cols)
    check(i2.shape[1] + k2.shape[1] == cols, "rank-nullity broken on t2: {}+{} != {}", i2.shape[1], k2.shape[1], cols)


@_suite("T = e1 T1 + e2 T2 is singular iff T1 is singular or T2 is singular")
def _suite_operator_singularity(check, rng, n, tol, cluster_tol):
    trial = rng.stream[-1]
    profile = "rank-deficient" if trial % 2 == 0 else "generic"
    planted = random_operator(rng.child(0), n, profile)
    op = planted.operator
    singular = is_singular_operator(op, tol)
    via_elimination = any((yield from _singular_by_elimination((op.t1, op.t2), tol)))
    k1, k2 = kernel(op, tol)
    via_kernel = (k1.shape[1] + k2.shape[1]) > 0
    check(
        singular == via_elimination,
        "operator verdict {} != elimination route {}", singular, via_elimination,
    )
    check(singular == via_kernel, "operator verdict {} != kernel route {}", singular, via_kernel)
    if profile == "rank-deficient":
        check(singular, "planted rank deficiency not detected")


@_suite("(T - kappa I) is singular iff (T1 - kappa1 I) or (T2 - kappa2 I) is", profiles=_SHARED)
def _suite_shift_singularity(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    far = _far_scalar(gen, report.upsilon1, report.upsilon2)
    far2 = _far_scalar(gen, report.upsilon1, report.upsilon2)
    cases = [
        (Bicomplex(report.upsilon1.value_list()[0], far), True),
        (Bicomplex(far, report.upsilon2.value_list()[0]), True),
        (Bicomplex(far, far2), False),
    ]
    eye = np.eye(n, dtype=np.complex128)
    verdicts = _shifted_singular(op, [kappa for kappa, _ in cases], tol)
    shifted = [t - z * eye for kappa, _ in cases for t, z in ((op.t1, kappa.minus), (op.t2, kappa.plus))]
    sides = yield from _singular_by_elimination(shifted, tol)
    for (kappa, expected), whole, minus, plus in zip(cases, verdicts, sides[::2], sides[1::2]):
        split = minus or plus
        check(whole == split, "shifted verdict {} != elimination route {} at {}", whole, split, kappa)
        check(whole == expected, "shifted singularity wrong at {}: got {}", kappa, whole)


@_suite("lambda is an eigenvalue of T iff lambda ∈ Y1 ∪ Y2 iff (T - lambda I) is singular", profiles=_SHARED)
def _suite_eigenvalue_criterion(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    lams = (
        report.upsilon1.value_list()
        + report.upsilon2.value_list()
        + [planted.shared_eigenvalue, _far_scalar(gen, report.upsilon1, report.upsilon2)]
    )
    for lam, singular in zip(lams, _shifted_singular(op, [complex(lam) for lam in lams], tol)):
        member = report.is_eigenvalue(lam)
        check(member == singular, "eigenvalue criterion split at {}: member={}", lam, member)
    check(report.is_eigenvalue(planted.shared_eigenvalue), "planted shared eigenvalue missed")


@_suite("kappa is a modified eigenvalue iff kappa1 ∈ Y1 or kappa2 ∈ Y2 iff (T - kappa I) is singular", profiles=_SHARED)
def _suite_modified_criterion(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    far = _far_scalar(gen, report.upsilon1, report.upsilon2)
    far2 = _far_scalar(gen, report.upsilon1, report.upsilon2)
    kappas = [
        Bicomplex(report.upsilon1.value_list()[0], far),
        Bicomplex(far, report.upsilon2.value_list()[0]),
        Bicomplex(report.upsilon1.value_list()[0], report.upsilon2.value_list()[0]),
        Bicomplex(far, far2),
    ]
    brutes = yield [shifted_block(op, kappa, cluster_tol) for kappa in kappas]
    routes = zip(kappas, _raw_cylinder(op, cluster_tol, kappas), _shifted_singular(op, kappas, tol), brutes)
    for kappa, on_cylinder, singular, brute in routes:
        verdict = report.classify_modified(kappa) is not None
        brute_dim = brute.shape[1]
        check(verdict == on_cylinder, "criterion vs membership split at {}", kappa)
        check(verdict == singular, "criterion vs shifted-singularity split at {}", kappa)
        check(
            verdict == (brute_dim > 0),
            "criterion {} vs block nullspace dim {} at {}", verdict, brute_dim, kappa,
        )


@_suite("Y1 xe Y2 is properly contained in the modified spectrum Y", profiles=_SHARED)
def _suite_containment(check, rng, n, tol, cluster_tol, planted, report):
    y1, y2 = report.upsilon1, report.upsilon2
    for k1 in y1.value_list():
        for k2 in y2.value_list():
            kappa = Bicomplex(k1, k2)
            check(report.classify_modified(kappa) is ModifiedCase.BOTH, "grid pair {} not tagged Both", kappa)
    # Plus component pushed past every member of Y2: outside the grid by
    # construction, still modified through the minus side.
    away = max((abs(v) for v in y2.value_list()), default=0.0)
    witness = Bicomplex(y1.value_list()[0], away + 1.0 + 10.0 * y2.tol)
    check(report.classify_modified(witness) is ModifiedCase.ONLY_MINUS, "witness {} not tagged OnlyMinus", witness)
    check(not y2.contains(witness.plus), "witness does not leave the idempotent-product grid")


@_suite("kappa1 e1 + w e2 is modified for every w when kappa1 ∈ Y1 (and symmetrically)", profiles=_SHARED)
def _suite_infinite_family(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    samples = [0.0, complex(complex_normal(gen)) * 3.0, complex(complex_normal(gen)) * 30.0]
    base1 = report.upsilon1.value_list()[0]
    base2 = report.upsilon2.value_list()[0]
    members = [Bicomplex(base1, w) for w in samples] + [Bicomplex(w, base2) for w in samples]
    for kappa in members:
        check(report.classify_modified(kappa) is not None, "family member {} rejected", kappa)
    (brute,) = yield [shifted_block(op, Bicomplex(base1, samples[1]), cluster_tol)]
    check(brute.shape[1] > 0, "family member invisible to the block oracle")
    outside = _far_scalar(gen, report.upsilon1)
    check(not report.upsilon1.contains(outside), "far base {} counted as a member of Y1", outside)


@_suite("Y = (Y1 xe C1) ∪ (C1 xe Y2)", profiles=_SHARED)
def _suite_cylinder_structure(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    far = _far_scalar(gen, report.upsilon1, report.upsilon2)
    kappas = [
        Bicomplex(report.upsilon1.value_list()[0], complex(complex_normal(gen)) * 5.0),
        Bicomplex(complex(complex_normal(gen)) * 5.0, report.upsilon2.value_list()[0]),
        Bicomplex(far, far),
    ]
    kappas += [Bicomplex(complex(minus), complex(plus)) for minus, plus in complex_normal(gen, (17, 2)) * 2.0]
    for kappa, on_cylinder in zip(kappas, _raw_cylinder(op, cluster_tol, kappas)):
        check(
            on_cylinder == (report.classify_modified(kappa) is not None),
            "cylinder description disagrees with the criterion at {}", kappa,
        )


@_suite(
    "the modified eigenspace splits as E1(kappa1) xe E2(kappa2) with {0} on non-member sides",
    profiles=("shared-eigenvalue", "defective", "rank-deficient"),
)
def _suite_eigenspace_structure(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    far = _far_scalar(gen, report.upsilon1, report.upsilon2)
    far2 = _far_scalar(gen, report.upsilon1, report.upsilon2)
    kappas = [
        Bicomplex(report.upsilon1.value_list()[0], far),
        Bicomplex(far2, report.upsilon2.value_list()[0]),
        Bicomplex(report.upsilon1.value_list()[0], report.upsilon2.value_list()[0]),
    ]
    bound = _residual_bound(op, cluster_tol)
    brutes = yield [shifted_block(op, kappa, cluster_tol) for kappa in kappas]
    for kappa, brute in zip(kappas, brutes):
        space = modified_eigenspace(report, kappa)
        check(
            space.dim == brute.shape[1],
            "structure dim {} != block dim {} at {} ({})", space.dim, brute.shape[1], kappa, planted.profile,
        )
        worst = space.max_residual(op)
        oracle_worst = max((residual_norm(op, kappa, v) for v in space.assembled), default=0.0)
        check(worst == oracle_worst, "max_residual {} != oracle residual {} at {}", worst, oracle_worst, kappa)
        check(worst <= bound, "residual above {} at {}", bound, kappa)
        if space.case is not ModifiedCase.BOTH:
            for v in space.assembled:
                check(
                    classify_vector(v, tol) is VectorClass.SINGULAR_NONZERO,
                    "one-sided basis vector not a singular nonzero vector",
                )
    # rejection test: a vector outside the eigenspace has a clearly positive residual
    kappa = kappas[0]
    brute = brute_modified_eigenspace(op, kappa, cluster_tol)
    for attempt in range(20):
        probe = random_vector(rng.child(7, attempt), n)
        flat = np.concatenate([probe.minus, probe.plus])
        inside = np.linalg.norm(flat - brute @ (brute.conj().T @ flat)) <= 1e-3 * np.linalg.norm(flat)
        if not inside:
            check(
                residual_norm(op, kappa, probe) > 10.0 * bound,
                "off-space vector slipped under the residual bound",
            )
            break


@_suite("a modified eigenvalue exists iff an eigenvalue exists (always, for n >= 1)", profiles=("generic",))
def _suite_existence(check, rng, n, tol, cluster_tol, planted, report):
    check(len(report.eigenvalues_of_T.values) > 0, "eigenvalue set empty")
    check(
        len(report.upsilon1.values) > 0 or len(report.upsilon2.values) > 0,
        "component spectra both empty",
    )
    kappa = Bicomplex(report.upsilon1.value_list()[0], 0.0)
    check(report.classify_modified(kappa) is not None, "no modified eigenvalue despite a nonempty spectrum")


@_suite(
    "the spectrum of diag(t1, t2) is the multiset union of the component spectra",
    profiles=("generic", "shared-eigenvalue", "defective"),
)
def _suite_block_spectrum(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    block = block_embed(op)
    block_eigs = list(np.linalg.eigvals(block))
    tol_abs = cluster_tol * (1.0 + np.linalg.norm(block))
    check(
        _match_multisets([complex(z) for z in block_eigs], report.eigenvalues_of_T.multiset(), tol_abs),
        "block spectrum is not the union eigenvalues_of_T of the component spectra ({})", planted.profile,
    )


@_suite("membership verdicts are invariant under componentwise similarity P T P^-1", profiles=_SHARED)
def _suite_similarity_invariance(check, rng, n, tol, cluster_tol, planted, report):
    op = report.op
    gen = rng.generator()
    # well-conditioned by construction: unitary * diag(0.5..2) * unitary
    q1, _ = np.linalg.qr(complex_normal(gen, (n, n)))
    q2, _ = np.linalg.qr(complex_normal(gen, (n, n)))
    p = q1 @ np.diag(gen.uniform(0.5, 2.0, n)) @ q2
    p_inv = np.linalg.inv(p)
    conjugated = BicomplexOperator(p @ op.t1 @ p_inv, p @ op.t2 @ p_inv)
    report2 = component_spectra(conjugated, cluster_tol)
    far = _far_scalar(gen, report.upsilon1, report.upsilon2)
    kappas = [
        Bicomplex(report.upsilon1.value_list()[0], far),
        Bicomplex(far, report.upsilon2.value_list()[0]),
        Bicomplex(planted.shared_eigenvalue, planted.shared_eigenvalue),
        Bicomplex(far, far),
    ]
    for kappa in kappas:
        before = report.classify_modified(kappa) is not None
        after = report2.classify_modified(kappa) is not None
        check(before == after, "membership changed under similarity at {}", kappa)


def run_verify(
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    n_min: int = DEFAULT_N_MIN,
    n_max: int = DEFAULT_N_MAX,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> VerifyReport:
    """Run every suite for `trials` seeded trials with n cycling n_min..n_max, at a tol with tol * n_max < 1."""
    _check_run(seed, trials)
    _check_sizes(n_min, n_max)
    if tol * n_max >= 1:
        raise InvalidArgumentError(
            f"need tol * n_max < 1, got {tol!r} * {n_max}: the rank rule sigma <= tol * max(||A||_F, 1) * n"
            " calls every n x n matrix singular once tol * n >= 1"
        )
    sizes = [n_min + trial % (n_max - n_min + 1) for trial in range(trials)]
    results = []
    for suite_index, (name, statement, run) in enumerate(SUITES):
        result = SuiteResult(name=name, statement=statement)
        for block in _blocks(sizes):
            checks = [_Check(f"seed={seed} suite={name} trial={trial} n={sizes[trial]}") for trial in block]
            rngs = [Rng(seed, (suite_index, trial)) for trial in block]
            run(checks, rngs, sizes[block.start : block.stop], tol, cluster_tol)
            for chk in checks:
                if chk.messages:
                    result.failures += 1
                    if len(result.messages) < MAX_MESSAGES:
                        result.messages.extend(chk.messages[: MAX_MESSAGES - len(result.messages)])
        results.append(result)
    return VerifyReport(results)


class SumWitness(NamedTuple):
    """A non-direct pair: the search trial that drew it, its two kappas and their sum's dimensions."""

    trial: int
    kappa: Bicomplex
    kappa_prime: Bicomplex
    dims: EigenspaceSumReport


@dataclass
class SumSearchReport:
    """Tabulated directness of pairwise modified-eigenspace sums.

    Records computed findings only; no claim is made beyond the sampled
    operators and pairs.
    """

    direct_count: int
    non_direct_count: int
    witnesses: list[SumWitness]


def run_sum_search(
    seed: int,
    trials: int,
    n_min: int = SEARCH_N_MIN,
    n_max: int = SEARCH_N_MAX,
    operator: BicomplexOperator | None = None,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SumSearchReport:
    """Sample pairs of modified eigenvalues and test whether their eigenspace sum is direct.

    Each trial draws an operator of size n cycling n_min..n_max, or takes the
    given operator, whose size is its own: n_min and n_max are then neither
    checked nor used.
    """
    _check_run(seed, trials)
    if operator is None:
        _check_sizes(n_min, n_max)
    direct = non_direct = 0
    witnesses: list[SumWitness] = []
    rngs = [Rng(seed, (997, trial)) for trial in range(trials)]
    if operator is None:
        sizes = [n_min + trial % (n_max - n_min + 1) for trial in range(trials)]
        profiles = ("generic", "shared-eigenvalue")
        blocks = (slice(block.start, block.stop) for block in _blocks(sizes))
        reports = (report for b in blocks for _, report in _analyse(rngs[b], sizes[b], profiles, cluster_tol))
    else:
        reports = repeat(component_spectra(operator, cluster_tol))
    for trial, (rng, report) in enumerate(zip(rngs, reports)):
        gen = rng.generator()
        far, far2 = (_far_scalar(gen, report.upsilon1, report.upsilon2) for _ in range(2))
        u1, u2 = report.upsilon1.value_list(), report.upsilon2.value_list()
        pool = [Bicomplex(v, far) for v in u1] + [Bicomplex(far2, v) for v in u2]
        pool += [Bicomplex(v, w) for v in u1[:2] for w in u2[:2]]
        kappa, kappa2 = (pool[int(gen.integers(len(pool)))] for _ in range(2))
        if kappa == kappa2:
            continue
        res = eigenspace_sum(report, kappa, kappa2, tol)
        if res.is_direct:
            direct += 1
        else:
            non_direct += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(SumWitness(trial, kappa, kappa2, res))
    return SumSearchReport(direct, non_direct, witnesses)
