"""Dense complex linear algebra over C1.

Everything the componentwise bicomplex computations need: one rank
decision behind singularity tests, nullspaces and column spaces, an
eigensolver that clusters (value, count) pairs on one distance matrix and
keeps the eigenvector of each simple eigenvalue, and one membership rule
(EigenSet.near).
Factorizations are numpy's LAPACK calls on the matrix scaled by a power of
two (see _scaled): one SVD for each rank decision (see _svd), and one eig
per matrix for its eigenvalues and eigenvectors.  Every norm and tolerance
goes through the same exact scale, so none overflows while its true value
is finite; no cluster merge overflows (see cluster_points), and each merge
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


def _scaled(a) -> tuple[np.ndarray, float]:
    """(s*A, s) with s = 2**-e, e the exponent of A's largest real or imaginary part and at least -1021.

    No part of s*A reaches 1, so no norm or singular value of s*A overflows,
    and scaling by a power of two is exact; the floor keeps s finite when
    every entry is subnormal.  An empty or zero A has s = 1.
    """
    a = np.asarray(a)
    big = max(float(np.abs(a.real).max(initial=0.0)), float(np.abs(a.imag).max(initial=0.0)))
    s = math.ldexp(1.0, -max(math.frexp(big)[1], -1021))
    return a * s, s


def frobenius(a) -> float:
    """Frobenius norm, as ||sA||_F / s (see _scaled): inf only when the norm itself exceeds float range."""
    a, s = _scaled(a)
    return float(np.linalg.norm(a)) / s


def _require_square(a: np.ndarray, op: str) -> int:
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{op} requires a square matrix, got shape {a.shape}")
    return a.shape[0]


@dataclass(eq=False)
class CSubspace:
    """Subspace of C1^n held as an orthonormal basis (columns); may be zero-dimensional."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.complex128)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis shape {self.basis.shape} inconsistent with ambient dim {self.ambient_dim}"
            )

    @classmethod
    def zero(cls, ambient_dim: int) -> "CSubspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "CSubspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def vectors(self) -> list[np.ndarray]:
        return [self.basis[:, k].copy() for k in range(self.dim)]

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.ambient_dim, dtype=np.complex128)
        return self.basis @ (self.basis.conj().T @ v)

    def contains(self, v, rel_tol: float = 1e-8) -> bool:
        v = np.asarray(v, dtype=np.complex128)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return True
        return float(np.linalg.norm(v - self.project(v))) <= rel_tol * nv


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


def _svd(a: np.ndarray, tol: float, threshold: float | None = None, vectors: bool = False):
    """Rank of A and the SVD of s*A (see _scaled): its singular values, or with vectors (u, sigma, vh).

    Singular values at or below the threshold, scaled alike, count as zero,
    so a tie errs toward rank deficiency.  The default threshold
    tol * max(||A||_F, 1) * max(rows, cols) is computed as
    tol * max(||sA||_F, s) * max(rows, cols); the floor at 1 keeps near-zero
    matrices consistent with the scalar classifier.  u and vh are square.
    A must be non-empty.
    """
    a, s = _scaled(a)
    try:
        factors = np.linalg.svd(a, compute_uv=vectors)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc
    if threshold is None:
        threshold = tol * max(float(np.linalg.norm(a)), s) * max(a.shape)
    else:
        threshold = s * threshold
    sigma = factors[1] if vectors else factors
    return int(np.count_nonzero(sigma > threshold)), factors


def is_singular_matrix(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the rank of the square matrix A is below its size (see _svd)."""
    a = as_carray(a)
    n = _require_square(a, "is_singular_matrix")
    if n == 0:
        return False
    return _svd(a, tol)[0] < n


def nullspace(a, tol: float = DEFAULT_TOL, threshold: float | None = None) -> CSubspace:
    """Orthonormal basis of {v : A v ≈ 0}: the trailing right singular vectors.

    Rank is decided by the singular values at the threshold described in
    _svd, the same decision is_singular_matrix makes, so the decision errs
    toward a larger nullspace.
    """
    a = as_carray(a)
    m, n = a.shape
    if n == 0:
        return CSubspace.zero(0)
    if m == 0:
        return CSubspace.full(n)

    rank, (_, _, vh) = _svd(a, tol, threshold, vectors=True)
    if rank == n:
        return CSubspace.zero(n)
    if rank == 0:
        return CSubspace.full(n)
    return CSubspace(n, vh[rank:].conj().T)


def column_space(a, tol: float = DEFAULT_TOL) -> CSubspace:
    """Orthonormal basis of the range of A: the leading left singular vectors (see _svd)."""
    a = as_carray(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return CSubspace.zero(m)
    rank, (u, _, _) = _svd(a, tol, vectors=True)
    return CSubspace(m, u[:, :rank])


def _moduli(z: np.ndarray, w) -> np.ndarray:
    """|z - w| by np.hypot of the part differences: Python's abs bit for bit, and inf where abs raises."""
    with np.errstate(over="ignore"):  # a part difference beyond float range is inf
        d = z.real - w.real
        return np.hypot(d, z.imag - w.imag, out=d)


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

    The distances are one k-by-k matrix, inf on and below the diagonal and
    for merged-away clusters, whose row-major argmin is the closest pair, the
    first one on a tie; a merge refreshes the row and column of i.  O(k^2)
    time per merge and k^2 doubles of memory.
    """
    reps = [complex(v) for v, _ in clusters]
    counts = [m for _, m in clusters]
    members = [(i,) for i in range(len(reps))]
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


def eigenvalues(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> EigenSet:
    """Clustered spectrum of a square matrix, from one eig of s*A (see _scaled).

    Its tol, the absolute clustering and membership tolerance
    cluster_tol * (1 + ||A||_F), is computed on the same copy as
    cluster_tol * (s + ||sA||_F) / s, so it is finite whenever its true value
    is: at the default cluster_tol, for every finite A.  Each part of the
    values is scaled back by ldexp, exactly unless it underflows, so eig
    gives 2**k * A exactly 2**k times A's values when neither holds a
    subnormal part; a value beyond float range raises NonFiniteValueError.
    A simple cluster takes its one value's eig vector.
    """
    a = as_carray(a)
    _require_square(a, "eigenvalues")
    sa, s = _scaled(a)
    tol = cluster_tol * (s + float(np.linalg.norm(sa))) / s
    try:
        vals, vecs = np.linalg.eig(sa)
    except np.linalg.LinAlgError as exc:  # deflation budget exhausted inside LAPACK
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    # s = 2**-e with e = 1 - frexp(s)[1]; a part beyond float range becomes inf
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals.view(np.float64), 1 - math.frexp(s)[1]).view(np.complex128)
    if not np.isfinite(vals).all():
        raise NonFiniteValueError("eig gave a non-finite eigenvalue of a finite matrix")
    clusters = cluster_points([(v, 1) for v in vals.tolist()], tol)
    vectors = tuple(vecs[:, idx[0]] if m == 1 else None for _, m, idx in clusters)
    return EigenSet(tuple((v, m) for v, m, _ in clusters), tol, vectors)
