"""Structure-blind reference computations used by tests and the verify command.

Everything here deliberately avoids the main code paths: multiplication goes
through the cartesian form, singularity through |z1**2 + z2**2|, eigenspaces
through Gauss-Jordan elimination on the 2n x 2n block embedding.  Agreement
between these routes and the primary implementations is the evidence the
verify suites collect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Bicomplex, IdealClass
from .errors import ZeroVectorError
from .operators import BicomplexOperator, BicomplexVector


@dataclass(frozen=True)
class Rng:
    """Deterministic random source: PCG64 keyed by (seed, *stream).

    Equal keys give bit-identical sample streams on every platform, so any
    failure reported with its key replays exactly.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, *self.stream])))

    def child(self, *indices: int) -> "Rng":
        return Rng(self.seed, self.stream + tuple(indices))


def complex_normal(gen: np.random.Generator, size=None) -> np.ndarray | complex:
    """Standard complex Gaussian samples (unit variance)."""
    z = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    if size is None:
        return complex(z) / math.sqrt(2.0)
    return z / math.sqrt(2.0)


# -- scalar oracles -----------------------------------------------------


def cartesian_mul(x: Bicomplex, y: Bicomplex) -> Bicomplex:
    """Product computed in the cartesian form, never touching the componentwise rule.

    With x = z1 + i2*z2 and y = w1 + i2*w2 (and i2**2 = -1) the product is
    (z1*w1 - z2*w2) + i2*(z1*w2 + z2*w1).
    """
    z1, z2 = x.to_cartesian()
    w1, w2 = y.to_cartesian()
    return Bicomplex.from_cartesian(z1 * w1 - z2 * w2, z1 * w2 + z2 * w1)


def classify_cartesian(z1: complex, z2: complex, tol: float = DEFAULT_TOL) -> IdealClass:
    """Singularity decided from cartesian data via s = |z1**2 + z2**2|.

    s equals the product of the idempotent component magnitudes, and
    q = |z1|**2 + |z2|**2 is half their squared sum, so the larger component
    magnitude b is sqrt(q + sqrt(q**2 - s**2)).  The scalar is singular when
    s <= tol * max(b, 1) * b, the image of the component criterion.  The
    ideal tag, when singular, needs the individual component magnitudes.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    s = abs(z1 * z1 + z2 * z2)
    q = abs(z1) ** 2 + abs(z2) ** 2
    b = math.sqrt(q + math.sqrt(max(q * q - s * s, 0.0)))
    if b <= tol * max(b, 1.0):
        return IdealClass.ZERO
    if s > tol * max(b, 1.0) * b:
        return IdealClass.NONSINGULAR
    if abs(z1 + 1j * z2) <= abs(z1 - 1j * z2):
        return IdealClass.IN_I1
    return IdealClass.IN_I2


# -- block embedding ----------------------------------------------------


def block_embed(op: BicomplexOperator) -> np.ndarray:
    """C2^n as C1^(2n): T becomes diag(t1, t2) acting on (minus ‖ plus)."""
    m, n = op.shape
    out = np.zeros((2 * m, 2 * n), dtype=np.complex128)
    out[:m, :n] = op.t1
    out[m:, n:] = op.t2
    return out


def residual(op: BicomplexOperator, kappa, v: BicomplexVector) -> float:
    """||T v - kappa v|| in the Euclidean norm of the concatenated components."""
    if v.is_exact_zero():
        raise ZeroVectorError("residual is undefined on the zero vector")
    if not isinstance(kappa, Bicomplex):
        kappa = Bicomplex.from_complex(kappa)
    return math.hypot(
        np.linalg.norm(op.t1 @ v.minus - kappa.minus * v.minus),
        np.linalg.norm(op.t2 @ v.plus - kappa.plus * v.plus),
    )


# -- independent elimination nullspace ----------------------------------


def elimination_nullspace(a, threshold: float) -> np.ndarray:
    """Nullspace basis (columns) by Gauss-Jordan elimination with partial pivoting.

    Kept separate from the SVD rank route on purpose; pivots at or below
    the absolute threshold count as zero.
    """
    a = np.array(a, dtype=np.complex128)
    m, n = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        lead = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[lead, col]) <= threshold:
            continue
        a[[row, lead]] = a[[lead, row]]
        a[row] = a[row] / a[row, col]
        for r in range(m):
            if r != row and a[r, col] != 0:
                a[r] = a[r] - a[r, col] * a[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.complex128)
    for k, f in enumerate(free):
        basis[f, k] = 1.0
        for i, p in enumerate(pivots):
            basis[p, k] = -a[i, f]
    return basis


def _gram_schmidt(columns: np.ndarray) -> np.ndarray:
    """Local modified Gram-Schmidt; the primary path's SVD and QR stay out of the oracle."""
    n, k = columns.shape
    out = np.zeros((n, k), dtype=np.complex128)
    kept = 0
    work = columns.astype(np.complex128, copy=True)
    for j in range(k):
        v = work[:, j]
        for i in range(kept):
            v = v - (out[:, i].conj() @ v) * out[:, i]
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            out[:, kept] = v / norm
            kept += 1
    return out[:, :kept]


def brute_modified_eigenspace(
    op: BicomplexOperator, kappa: Bicomplex, tol: float = 1e-8
) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of the shifted block embedding, in C1^(2n).

    Its dimension must equal the componentwise (structure) dimension of the
    modified eigenspace of kappa.
    """
    block = block_embed(op) - np.diag(np.repeat([kappa.minus, kappa.plus], op.n))
    threshold = tol * (1.0 + np.linalg.norm(block))
    raw = elimination_nullspace(block, threshold)
    return _gram_schmidt(raw)


# -- random instances with planted structure ----------------------------

PROFILES = ("generic", "shared-eigenvalue", "rank-deficient", "defective")

#: Off-diagonal coupling of planted non-diagonalizable blocks.  Large enough
#: that the deficiency is unambiguous at rank thresholds, small enough that
#: the computed eigenvalue stays within ~1e-9 of the planted one.
_JORDAN_COUPLING = 0.01


@dataclass
class PlantedOperator:
    """Random operator plus the ground truth planted into it."""

    operator: BicomplexOperator
    shared_eigenvalue: complex | None = None
    defective_side: int | None = None          # 1 or 2: Jordan-type block planted there
    defective_eigenvalue: complex | None = None


def _unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_normal(gen, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(gen, diag, coupling_at: int | None = None) -> np.ndarray:
    """Upper-triangular matrix with the given diagonal, unitarily disguised.

    coupling_at plants a 2-block at that diagonal index (requires the two
    diagonal entries there to be equal for a true defect).
    """
    n = len(diag)
    t = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(t, diag)
    if coupling_at is not None:
        t[coupling_at, coupling_at + 1] = _JORDAN_COUPLING
    q = _unitary(gen, n)
    return q @ t @ q.conj().T


def _distinct_diag(gen, n: int, avoid: complex | None = None) -> np.ndarray:
    vals = complex_normal(gen, n) * 2.0
    if avoid is not None:
        for i in range(n):
            while abs(vals[i] - avoid) < 0.1:
                vals[i] = complex(complex_normal(gen)) * 2.0
    return vals


def random_operator(rng: Rng, n: int, profile: str = "generic") -> PlantedOperator:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()

    if profile == "generic":
        t1 = complex_normal(gen, (n, n))
        t2 = complex_normal(gen, (n, n))
        return PlantedOperator(BicomplexOperator(t1, t2))

    if profile == "shared-eigenvalue":
        lam = complex(complex_normal(gen)) * 2.0
        d1 = _distinct_diag(gen, n, avoid=lam)
        d2 = _distinct_diag(gen, n, avoid=lam)
        slot1 = int(gen.integers(n))
        slot2 = int(gen.integers(n))
        d1[slot1] = lam
        d2[slot2] = lam
        t1 = _with_spectrum(gen, d1)
        t2 = _with_spectrum(gen, d2)
        return PlantedOperator(BicomplexOperator(t1, t2), shared_eigenvalue=lam)

    if profile == "rank-deficient":
        side = int(gen.integers(2)) + 1
        r = int(gen.integers(n))  # 0 <= r < n: genuinely deficient
        if r == 0:
            deficient = np.zeros((n, n), dtype=np.complex128)
        else:
            deficient = complex_normal(gen, (n, r)) @ complex_normal(gen, (r, n))
        other = complex_normal(gen, (n, n))
        t1, t2 = (deficient, other) if side == 1 else (other, deficient)
        return PlantedOperator(BicomplexOperator(t1, t2))

    # defective: a geometric deficiency on one side (needs n >= 2; at n = 1
    # it degrades to a planted simple eigenvalue).
    side = int(gen.integers(2)) + 1
    lam = complex(complex_normal(gen)) * 2.0
    if n == 1:
        planted = _with_spectrum(gen, np.array([lam]))
    else:
        diag = _distinct_diag(gen, n, avoid=lam)
        diag[0] = lam
        diag[1] = lam
        planted = _with_spectrum(gen, diag, coupling_at=0)
    other = complex_normal(gen, (n, n))
    t1, t2 = (planted, other) if side == 1 else (other, planted)
    return PlantedOperator(BicomplexOperator(t1, t2), defective_side=side, defective_eigenvalue=lam)


def random_vector(rng: Rng, n: int) -> BicomplexVector:
    gen = rng.generator()
    return BicomplexVector(complex_normal(gen, n), complex_normal(gen, n))


def random_scalar(rng: Rng, scale: float = 1.0) -> Bicomplex:
    gen = rng.generator()
    return Bicomplex(complex(complex_normal(gen)) * scale, complex(complex_normal(gen)) * scale)
