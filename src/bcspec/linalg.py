"""Dense complex linear algebra over C1.

Everything the componentwise bicomplex computations need: one rank
rule behind singularity tests, nullspaces and column spaces as (n, k)
arrays of orthonormal columns, an eigensolver that clusters (value, count)
pairs and keeps the eigenvector of each simple eigenvalue, and one
membership rule (EigenSet.near).  Clustering scans every pair in plain
Python for a small spectrum and merges on one distance matrix beyond
_SCAN_MAX clusters; both paths make the same merges bit for bit.
Factorizations are numpy's LAPACK calls on copies scaled by a power of two
(see _scaled): one SVD per rank decision (see _svd) and one eig per
spectrum, or one call for a (k, n, n) stack, such as an operator's two
sides, each scaled and thresholded alone.  Every norm and tolerance goes
through the same exact scale, so none overflows while its true value is
finite; no cluster merge overflows (see cluster_points), and each merge
is recorded in the members of the cluster it makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NonFiniteValueError, NonSquareError
from .core import DEFAULT_TOL

#: Default relative tolerance for merging eigenvalues into multiplicities and
#: for membership tests against a spectrum.  Shared with the spectra module.
DEFAULT_CLUSTER_TOL = 1e-8


def as_carray(a, ndim: int = 2) -> np.ndarray:
    """Coerce to a complex128 array of the given ndim (1: vector, 2: matrix).

    Raises NonFiniteValueError on a NaN or infinite entry.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("array entries must be finite")
    return arr


def _scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each matrix A of a complex (k, m, n) stack in place by s = 2**-e; return every s and every ||sA||_F.

    The stack is C-contiguous, or a stack of Fortran-ordered matrices, as
    np.array copies a Fortran-ordered A[None].

    e is the exponent of A's largest real or imaginary part, at least
    -1021.  No part of s*A reaches 1, so no norm or singular value of s*A
    overflows, and scaling by a power of two is exact; the floor keeps s
    finite when every entry is subnormal.  An empty or zero A has s = 1.
    One reduction finds every scale, and each squared norm is the BLAS dot
    of sA's real parts with themselves plus that of its imaginary parts,
    the two dots np.linalg.norm takes, so every figure is the one A alone
    gets, bit for bit.
    """
    items = stack if stack.flags.c_contiguous else stack.transpose(0, 2, 1)  # C-contiguous: each A's parts in memory order
    parts = items.reshape(len(stack), math.prod(stack.shape[1:])).view(np.float64)
    s = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(parts).max(axis=1, initial=0.0))[1], -1021))
    stack *= s[:, None, None]
    re, im = parts[:, None, 0::2], parts[:, None, 1::2]
    return s, np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def frobenius(a) -> float:
    """Frobenius norm, as ||sA||_F / s (see _scaled): inf only when the norm itself exceeds float range."""
    [s], [norm] = _scaled(np.array(a, dtype=np.complex128).ravel("K").reshape(1, 1, -1))
    return float(norm) / float(s)


def _square_stack(a, op: str) -> tuple[np.ndarray, bool]:
    """A C-ordered copy of the square matrix A as a stack of one, or of the (k, n, n) stack A, checked by as_carray; and whether A is one matrix.

    Every norm is then summed in one order, so a matrix gets the same tolerance alone and in a stack."""
    a = np.array(a, dtype=np.complex128, order="C")
    single = a.ndim != 3
    stack = as_carray(a)[None] if single else as_carray(a, ndim=3)
    if stack.shape[1] != stack.shape[2]:
        raise NonSquareError(f"{op} requires a square matrix, got shape {stack.shape[1:]}")
    return stack, single


@dataclass(frozen=True)
class EigenSet:
    """Clustered spectrum: (eigenvalue, algebraic multiplicity) pairs.

    Representatives are pairwise separated by more than tol, the absolute
    tolerance the set was clustered at and decides membership with (near),
    and multiplicities sum to the matrix dimension.  Aligned with values,
    vectors holds each simple cluster's unit eig vector, else None (all None
    unless computed by eigenvalues), and members the input clusters a union
    merged into each (see SpectrumReport.eigenvalues_of_T; else empty).
    Equality and hashing ignore both.
    """

    values: tuple[tuple[complex, int], ...]
    tol: float
    vectors: tuple[np.ndarray | None, ...] = field(default=(), compare=False, repr=False)
    members: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.vectors:
            object.__setattr__(self, "vectors", (None,) * len(self.values))

    def value_list(self) -> list[complex]:
        return [v for v, _ in self.values]

    def multiset(self) -> list[complex]:
        """Eigenvalues repeated by multiplicity."""
        out: list[complex] = []
        for v, m in self.values:
            out.extend([v] * m)
        return out

    def near(self, z) -> list[int]:
        """Indices of the clusters within tol of z; a tie at the boundary is a member.

        The distance is Python's abs of complex(z) - v, and inf beyond float range."""
        z = complex(z)
        out = []
        for k, (v, _) in enumerate(self.values):
            try:
                d = abs(z - v)
            except OverflowError:
                d = math.inf
            if d <= self.tol:
                out.append(k)
        return out

    def contains(self, lam) -> bool:
        """Membership within tol: some cluster is near lam."""
        return bool(self.near(lam))


def _svd(stack: np.ndarray, tol: float, threshold: float | None = None):
    """(ranks, u, vh): the rank of each A of the (k, m, n) stack, and the vectors of one SVD of the stack of s*A, each A scaled in place (see _scaled).

    Singular values at or below the threshold, scaled alike, count as zero,
    so a tie errs toward rank deficiency.  The default threshold
    tol * max(||A||_F, 1) * max(rows, cols) is computed as
    tol * max(||sA||_F, s) * max(rows, cols); the floor at 1 keeps near-zero
    matrices consistent with the scalar classifier.  u and vh are square.
    A must be non-empty.
    """
    scales, norms = _scaled(stack)
    try:
        u, sigmas, vh = np.linalg.svd(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc
    with np.errstate(over="ignore"):  # a bound beyond float range is inf
        bounds = tol * np.maximum(norms, scales) * max(stack.shape[1:]) if threshold is None else scales * threshold
    return np.count_nonzero(sigmas > bounds[:, None], axis=1).tolist(), u, vh


def is_singular_matrix(a, tol: float = DEFAULT_TOL) -> bool | list[bool]:
    """True iff the rank of the square matrix A is below its size (see _svd); on a (k, n, n) stack, the k verdicts from one SVD."""
    stack, single = _square_stack(a, "is_singular_matrix")
    n = stack.shape[2]
    verdicts = [rank < n for rank in _svd(stack, tol)[0]] if n else [False] * len(stack)
    return verdicts[0] if single else verdicts


def nullspace(a, tol: float = DEFAULT_TOL, threshold: float | None = None) -> np.ndarray:
    """Orthonormal basis of {v : A v ≈ 0} as the columns of an (n, k) array: the trailing right singular vectors.

    Rank is decided by the singular values at the threshold described in
    _svd, so the decision errs toward a larger nullspace.
    """
    a = as_carray(a)
    m, n = a.shape
    if m == 0 or n == 0:  # every vector of C^n is in the nullspace of an empty A
        return np.eye(n, dtype=np.complex128)

    [rank], _, [vh] = _svd(np.array(a[None]), tol, threshold)
    if rank == 0:
        return np.eye(n, dtype=np.complex128)
    return vh[rank:].conj().T


def column_space(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the range of A as the columns of an (m, r) array: the leading left singular vectors (see _svd)."""
    a = as_carray(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((m, 0), dtype=np.complex128)
    [rank], [u], _ = _svd(np.array(a[None]), tol)
    return u[:, :rank]


def _moduli(z: np.ndarray, w) -> np.ndarray:
    """|z - w| by np.hypot of the part differences: Python's abs bit for bit, and inf where abs raises."""
    with np.errstate(over="ignore"):  # a part difference beyond float range is inf
        d = z.real - w.real
        return np.hypot(d, z.imag - w.imag, out=d)


#: Largest number of clusters cluster_points merges by a plain-Python scan; more go to the distance matrix.
_SCAN_MAX = 16


def cluster_points(clusters, tol_abs: float) -> list[tuple[complex, int, tuple[int, ...]]]:
    """Agglomerate (value, count) clusters whose finite values sit within tol_abs.

    Each step merges the closest pair a, b into their count-weighted mean
    a + (b - a) * n_b / (n_a + n_b), which lies between a and b, so it never
    overflows and is exactly a when b == a; a pair whose distance overflows
    is never merged.  A tie goes to the first pair in (i, j) list order, and
    the merged cluster takes i's place and j's input indices.  Merging stops
    once the closest pair is farther apart than tol_abs.  Returns
    (representative, count, input indices) triples, pairwise separated by
    more than tol_abs, sorted by (real, imag).

    Up to _SCAN_MAX clusters, each step scans every pair in plain Python,
    with abs(a - b) as the distance, inf where abs raises: O(k^2) time per
    merge and no numpy call.  Beyond it, _cluster_matrix merges on a k-by-k
    distance matrix; both make the same merges bit for bit (see _moduli).
    """
    reps = [complex(v) for v, _ in clusters]
    counts = [m for _, m in clusters]
    members = [(i,) for i in range(len(reps))]
    if len(reps) > _SCAN_MAX:
        return _cluster_matrix(reps, counts, members, tol_abs)
    while len(reps) > 1:
        best, i, j = math.inf, -1, -1
        for p, a in enumerate(reps):
            for q in range(p + 1, len(reps)):
                try:
                    d = abs(a - reps[q])
                except OverflowError:
                    continue
                if d < best:  # strict, so a tie keeps the first pair and an inf distance never wins
                    best, i, j = d, p, q
        if i < 0 or best > tol_abs:
            break
        counts[i] += counts[j]
        reps[i] += (reps[j] - reps[i]) * (counts[j] / counts[i])
        members[i] += members[j]
        del reps[j], counts[j], members[j]
    return sorted(zip(reps, counts, members), key=lambda c: (c[0].real, c[0].imag))


def _cluster_matrix(
    reps: list[complex], counts: list[int], members: list[tuple[int, ...]], tol_abs: float
) -> list[tuple[complex, int, tuple[int, ...]]]:
    """cluster_points on one k-by-k distance matrix, inf on and below the diagonal and for merged-away clusters.

    Its row-major argmin is the closest pair, the first one on a tie; a
    merge refreshes the row and column of i.  O(k^2) time per merge and k^2
    doubles of memory.
    """
    k = len(reps)
    if k <= 1:
        return list(zip(reps, counts, members))
    z = np.array(reps)
    dist = _moduli(z[:, None], z)
    dist[np.tri(k, dtype=bool)] = np.inf
    live = np.ones(k, dtype=bool)
    while True:
        i, j = divmod(int(dist.argmin()), k)
        if dist[i, j] > tol_abs or dist[i, j] == math.inf:
            break
        counts[i] += counts[j]
        reps[i] += (reps[j] - reps[i]) * (counts[j] / counts[i])
        members[i] += members[j]
        z[i] = reps[i]
        live[j] = False
        dist[j, :] = dist[:, j] = np.inf
        row = _moduli(z, z[i])
        row[~live] = np.inf
        dist[i, i + 1 :] = row[i + 1 :]
        dist[:i, i] = row[:i]
    return sorted(((reps[i], counts[i], members[i]) for i in np.flatnonzero(live)), key=lambda c: (c[0].real, c[0].imag))


def eigenvalues(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> EigenSet | list[EigenSet]:
    """Clustered spectrum of a square matrix, from one eig of s*A (see _scaled); on a (k, n, n) stack, the k spectra from one eig.

    Its tol, the absolute clustering and membership tolerance
    cluster_tol * (1 + ||A||_F), is computed on the same copy as
    cluster_tol * (s + ||sA||_F) / s, so it is finite whenever its true value
    is: at the default cluster_tol, for every finite A.  Each part of the
    values is scaled back by ldexp, exactly unless it underflows, so eig
    gives 2**k * A exactly 2**k times A's values when neither holds a
    subnormal part; a value beyond float range raises NonFiniteValueError.
    A simple cluster takes its one value's eig vector.
    """
    stack, single = _square_stack(a, "eigenvalues")
    scales, norms = _scaled(stack)
    try:
        values, vectors = np.linalg.eig(stack)
    except np.linalg.LinAlgError as exc:  # deflation budget exhausted inside LAPACK
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    # s = 2**-e with e = 1 - frexp(s)[1]; a tol or a part beyond float range becomes inf
    with np.errstate(over="ignore"):
        tols = (cluster_tol * (scales + norms) / scales).tolist()
        values = np.ldexp(values.view(np.float64), 1 - np.frexp(scales)[1][:, None]).view(np.complex128)
    if not np.isfinite(values).all():
        raise NonFiniteValueError("eig gave a non-finite eigenvalue of a finite matrix")
    sets = []
    for vals, vecs, tol in zip(values.tolist(), vectors, tols):
        clusters = cluster_points([(v, 1) for v in vals], tol)
        kept = tuple(vecs[:, idx[0]] if m == 1 else None for _, m, idx in clusters)
        sets.append(EigenSet(tuple((v, m) for v, m, _ in clusters), tol, kept))
    return sets[0] if single else sets
