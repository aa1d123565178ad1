"""Dense complex linear algebra over C1.

Everything the componentwise bicomplex computations need: one rank
decision behind singularity tests, nullspaces and column spaces, an
eigensolver with multiplicity clustering that keeps the eigenvector of each
simple eigenvalue, and subspace sum/intersection arithmetic.  Factorizations
are numpy's LAPACK calls: one SVD of the matrix scaled by a power of two
for each rank decision (see _svd), and one eig per matrix for its
eigenvalues and eigenvectors.  Every norm and tolerance goes through the
same exact power-of-two scale (see _scaled), so none overflows while its
true value is finite.
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
    tolerance the set was clustered at and decides membership with, and
    multiplicities sum to the matrix dimension.  vectors, aligned with
    values, holds the unit eigenvector of each simple cluster as eig
    returned it and None for every other cluster; it is all None when the
    set was not computed by eigenvalues, and equality and hashing ignore it.
    """

    values: tuple[tuple[complex, int], ...]
    tol: float
    vectors: tuple[np.ndarray | None, ...] = field(default=(), compare=False, repr=False)

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

    def distances(self, points) -> np.ndarray:
        """|z - v| for each point z (rows) and cluster v (columns).

        np.hypot equals Python's abs bit for bit where finite (np.abs does not),
        and gives inf where abs raises OverflowError.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan at the top of the range
            d = np.asarray(points, dtype=complex)[:, None] - np.array(self.value_list(), dtype=complex)
            return np.hypot(d.real, d.imag)

    def contains(self, lam) -> bool:
        """Membership within tol, one row of distances; a tie at the boundary is a member."""
        return bool((self.distances([lam])[0] <= self.tol).any())


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


def cluster_points(points, tol_abs: float) -> list[tuple[complex, int]]:
    """Agglomerate complex points whose representatives sit within tol_abs.

    Each step merges the closest pair of clusters into their count-weighted
    mean; a tie goes to the first pair in (i, j) list order, and the merged
    cluster takes i's place.  Merging stops once the closest pair is farther
    apart than tol_abs.  Returns (representative, count) pairs, pairwise
    separated by more than tol_abs, sorted by (real, imag).

    Each live cluster caches its nearest later neighbour, so a merge rescans
    only the merged cluster and the clusters whose neighbour it absorbed:
    O(k^2) typical time and O(k) extra memory.  A NaN distance (from
    representatives at the top of the float range) is never the closest,
    except between the first two clusters, where it is merged at once.
    """
    reps = [complex(p) for p in points]
    counts = [1] * len(reps)
    live = list(range(len(reps)))
    near_d = [math.inf] * len(reps)
    near_j = [-1] * len(reps)

    def scan(pos: int) -> None:
        i = live[pos]
        zi = reps[i]
        best_d, best_j = math.inf, -1
        for j in live[pos + 1 :]:
            d = abs(zi - reps[j])
            if d < best_d or (best_j < 0 and d == best_d):
                best_d, best_j = d, j
        near_d[i], near_j[i] = best_d, best_j

    for pos in range(len(live)):
        scan(pos)
    while len(live) > 1:
        i, j = live[0], live[1]
        d = abs(reps[i] - reps[j])
        if d == d:  # not NaN: take the closest pair, the first one on a tie
            i = -1
            for r in live:
                if near_j[r] >= 0 and (i < 0 or near_d[r] < d):
                    d, i = near_d[r], r
            j = near_j[i]
            if d > tol_abs:
                break
        total = counts[i] + counts[j]
        reps[i] = (reps[i] * counts[i] + reps[j] * counts[j]) / total
        counts[i] = total
        end = live.index(j)
        del live[end]
        # Clusters after j never look back at i or j.
        for pos in range(end):
            r = live[pos]
            if r == i or near_j[r] in (i, j):
                scan(pos)
            elif r < i:
                d = abs(reps[r] - reps[i])
                if d < near_d[r] or (d == near_d[r] and (near_j[r] < 0 or i < near_j[r])):
                    near_d[r], near_j[r] = d, i
    merged = [(reps[i], counts[i]) for i in live]
    merged.sort(key=lambda vc: (vc[0].real, vc[0].imag))
    return merged


def cluster_tolerance(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Absolute clustering/membership tolerance for a matrix: tol * (1 + ||A||_F).

    Computed as tol * (s + ||sA||_F) / s (see _scaled), so it is finite
    whenever its true value is: at the default tol, for every finite A.
    """
    a, s = _scaled(a)
    return cluster_tol * (s + float(np.linalg.norm(a))) / s


def eigenvalues(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> EigenSet:
    """Clustered spectrum of a square matrix, from one eig; its tol is the cluster tolerance of a.

    cluster_points never moves a singleton, so each simple cluster's value is
    one eig value exactly and takes that value's eigenvector column.
    """
    a = as_carray(a)
    n = _require_square(a, "eigenvalues")
    tol = cluster_tolerance(a, cluster_tol)
    if n == 0:
        return EigenSet((), tol)
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # deflation budget exhausted inside LAPACK
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    points = vals.tolist()
    clusters = tuple(cluster_points(points, tol))
    column = {v: k for k, v in enumerate(points)}
    return EigenSet(clusters, tol, tuple(vecs[:, column[v]] if m == 1 else None for v, m in clusters))


def subspace_sum(u: CSubspace, w: CSubspace, tol: float = DEFAULT_TOL) -> CSubspace:
    """Smallest subspace containing both operands."""
    if u.ambient_dim != w.ambient_dim:
        raise ValueError("subspace sum needs a common ambient space")
    if u.dim == 0:
        return CSubspace(w.ambient_dim, w.basis.copy())
    if w.dim == 0:
        return CSubspace(u.ambient_dim, u.basis.copy())
    stacked = np.hstack([u.basis, w.basis])
    return column_space(stacked, tol)


def subspace_intersection(u: CSubspace, w: CSubspace, tol: float = DEFAULT_TOL) -> CSubspace:
    """Intersection via the nullspace of the stacked-basis system [U | -W]."""
    if u.ambient_dim != w.ambient_dim:
        raise ValueError("subspace intersection needs a common ambient space")
    if u.dim == 0 or w.dim == 0:
        return CSubspace.zero(u.ambient_dim)
    stacked = np.hstack([u.basis, -w.basis])
    coeffs = nullspace(stacked, tol)
    if coeffs.dim == 0:
        return CSubspace.zero(u.ambient_dim)
    vectors = u.basis @ coeffs.basis[: u.dim, :]
    ortho, _ = np.linalg.qr(vectors)
    return CSubspace(u.ambient_dim, ortho)
