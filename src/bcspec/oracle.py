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
from .operators import BicomplexOperator, BicomplexVector


@dataclass(frozen=True)
class Rng:
    """Deterministic random source: PCG64 keyed by (seed, *stream).

    SeedSequence hashes the key's uint32 words, each int's little-endian
    32-bit words (one below 2**32, one zero word for 0), as numpy does the
    list [seed, *stream].  Equal keys give bit-identical sample streams on
    every platform, so any failure reported with its key replays exactly.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        words = []
        for k in (self.seed, *self.stream):
            while k > 0xFFFFFFFF:
                k, low = divmod(k, 1 << 32)
                words.append(low)
            words.append(k)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))

    def child(self, *indices: int) -> "Rng":
        return Rng(self.seed, self.stream + tuple(indices))


def complex_normal(gen: np.random.Generator, size=None) -> np.ndarray | complex:
    """Standard complex Gaussian samples (unit variance)."""
    return (gen.standard_normal(size) + 1j * gen.standard_normal(size)) / math.sqrt(2.0)


# -- scalar oracles -----------------------------------------------------

#: Largest part of z1, z2 that classify_cartesian squares unscaled; q**2 stays finite below about 1e77.
_CARTESIAN_LIMIT = 2.0**200


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

    Past _CARTESIAN_LIMIT, where q**2 and |z1|**2 overflow, z1 and z2 are
    first scaled by c = 2**-e, e the exponent of their largest part; the
    rule is then checked on c*b with c standing for 1, exactly as a power of
    two scales it.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    c = 1.0
    big = max(abs(z1.real), abs(z1.imag), abs(z2.real), abs(z2.imag))
    if big > _CARTESIAN_LIMIT:
        c = math.ldexp(1.0, -math.frexp(big)[1])
        z1, z2 = z1 * c, z2 * c
    s = abs(z1 * z1 + z2 * z2)
    q = abs(z1) ** 2 + abs(z2) ** 2
    b = math.sqrt(q + math.sqrt(max(q * q - s * s, 0.0)))
    if b <= tol * max(b, c):
        return IdealClass.ZERO
    if s > tol * max(b, c) * b:
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
    if not isinstance(kappa, Bicomplex):
        kappa = Bicomplex.from_complex(kappa)
    return math.hypot(
        np.linalg.norm(op.t1 @ v.minus - kappa.minus * v.minus),
        np.linalg.norm(op.t2 @ v.plus - kappa.plus * v.plus),
    )


# -- independent elimination nullspace ----------------------------------


def elimination_nullspace(a, threshold):
    """Nullspace basis (columns) by Gauss-Jordan elimination with partial pivoting.

    Kept separate from the SVD rank route on purpose; pivots at or below
    the absolute threshold count as zero.  Each pivot clears its column from
    the other rows with one rank-1 update of the whole matrix.  A (k, m, n)
    stack, with one threshold per matrix, gives the list of the k bases: the
    stack is eliminated column by column, each matrix at its own pivot row,
    so every matrix gets the basis it gets alone, bit for bit.
    """
    a = np.array(a, dtype=np.complex128)
    alone = a.ndim == 2
    k, m, n = (a := a.reshape(-1, *a.shape[-2:])).shape
    threshold = np.broadcast_to(np.asarray(threshold, dtype=float), (k,))
    row = np.zeros(k, dtype=np.intp)
    pivots = np.zeros((k, n), dtype=bool)
    below = np.arange(m)
    for col in range(n):
        mags = np.abs(a[:, :, col])
        mags[below < row[:, None]] = -np.inf
        live = pivots[:, col] = mags.max(axis=1) > threshold
        lead = mags.argmax(axis=1)
        sub, r = a, row
        if not live.all():
            live = np.flatnonzero(live)
            if not live.size:
                continue
            sub, lead, r = a[live], lead[live], row[live]
        at = np.arange(len(sub))
        pivot = sub[at, lead]
        sub[at, lead] = sub[at, r]
        pivot = pivot / pivot[:, col, None]
        sub -= sub[:, :, col, None] * pivot[:, None, :]
        sub[at, r] = pivot
        if sub is not a:
            a[live] = sub
        row += pivots[:, col]
    bases = []
    for j in range(k):
        free = np.flatnonzero(~pivots[j])
        basis = np.zeros((n, free.size), dtype=np.complex128)
        basis[free, np.arange(free.size)] = 1.0
        basis[pivots[j]] = -a[j, : row[j]][:, free]
        bases.append(basis)
    return bases[0] if alone else bases


def shifted_block(op: BicomplexOperator, kappa: Bicomplex, tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """The shifted block embedding diag(t1 - kappa^- I, t2 - kappa^+ I) and its elimination threshold tol * (1 + ||block||)."""
    block = block_embed(op)
    block.flat[:: 2 * op.n + 1] -= np.repeat([kappa.minus, kappa.plus], op.n)
    return block, tol * (1.0 + np.linalg.norm(block))


def brute_modified_eigenspace(op: BicomplexOperator, kappa: Bicomplex, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of the shifted block embedding, in C1^(2n).

    Its dimension must equal the componentwise (structure) dimension of the
    modified eigenspace of kappa.  The elimination basis has independent
    columns, so the unitary factor of its QR keeps every one.
    """
    return np.linalg.qr(elimination_nullspace(*shifted_block(op, kappa, tol)))[0]


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
    profile: str
    shared_eigenvalue: complex | None = None
    defective_side: int | None = None          # 1 or 2: Jordan-type block planted there
    defective_eigenvalue: complex | None = None


def _disguise(gen: np.random.Generator, diag, coupling_at: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(t, z): the upper-triangular t with the given diagonal, and the Gaussian z whose unitary factor disguises it.

    coupling_at plants a 2-block at that diagonal index (requires the two
    diagonal entries there to be equal for a true defect).  random_operators
    turns the pair into q @ t @ q^H, q the unitary factor of z.
    """
    n = len(diag)
    t = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(t, diag)
    if coupling_at is not None:
        t[coupling_at, coupling_at + 1] = _JORDAN_COUPLING
    return t, complex_normal(gen, (n, n))


def _distinct_diag(gen, n: int, avoid: complex | None = None) -> np.ndarray:
    vals = complex_normal(gen, n) * 2.0
    if avoid is not None:
        for i in range(n):
            while abs(vals[i] - avoid) < 0.1:
                vals[i] = complex(complex_normal(gen)) * 2.0
    return vals


def _draw(gen: np.random.Generator, n: int, profile: str) -> tuple[list, dict]:
    """One operator's draws from gen, in a fixed order: its two sides and its planted truth.

    A side is a matrix, or a (t, z) pair of _disguise still to be disguised."""
    if profile == "generic":
        return [complex_normal(gen, (n, n)), complex_normal(gen, (n, n))], {}

    if profile == "shared-eigenvalue":
        lam = complex(complex_normal(gen)) * 2.0
        d1 = _distinct_diag(gen, n, avoid=lam)
        d2 = _distinct_diag(gen, n, avoid=lam)
        slot1 = int(gen.integers(n))
        slot2 = int(gen.integers(n))
        d1[slot1] = lam
        d2[slot2] = lam
        return [_disguise(gen, d1), _disguise(gen, d2)], {"shared_eigenvalue": lam}

    if profile == "rank-deficient":
        side = int(gen.integers(2)) + 1
        r = int(gen.integers(n))  # 0 <= r < n: genuinely deficient
        if r == 0:
            deficient = np.zeros((n, n), dtype=np.complex128)
        else:
            deficient = complex_normal(gen, (n, r)) @ complex_normal(gen, (r, n))
        other = complex_normal(gen, (n, n))
        return ([deficient, other] if side == 1 else [other, deficient]), {}

    # defective: a geometric deficiency on one side (needs n >= 2; at n = 1
    # it degrades to a planted simple eigenvalue).
    side = int(gen.integers(2)) + 1
    lam = complex(complex_normal(gen)) * 2.0
    if n == 1:
        planted = _disguise(gen, np.array([lam]))
    else:
        diag = _distinct_diag(gen, n, avoid=lam)
        diag[0] = lam
        diag[1] = lam
        planted = _disguise(gen, diag, coupling_at=0)
    other = complex_normal(gen, (n, n))
    return ([planted, other] if side == 1 else [other, planted]), {"defective_side": side, "defective_eigenvalue": lam}


def random_operators(rngs, n: int, profile: str = "generic") -> list[PlantedOperator]:
    """One planted n x n operator of the profile per Rng, each drawn from rng.generator() alone.

    The draws of each operator come in a fixed order from its own
    generator, so an operator never depends on the others in the list.
    Every disguised side then shares one stacked QR, whose unitary factors
    get their phases fixed by the diagonal of R, and one stacked
    q @ t @ q^H; each matrix of a stack is computed as it would be alone,
    bit for bit.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if n < 1:
        raise ValueError("n must be at least 1")
    drawn = [_draw(rng.generator(), n, profile) for rng in rngs]
    disguised = [(sides, k) for sides, _ in drawn for k, side in enumerate(sides) if isinstance(side, tuple)]
    if disguised:
        t, z = (np.array([sides[k][part] for sides, k in disguised]) for part in (0, 1))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        q *= (d / np.abs(d))[:, None, :]
        for (sides, k), a in zip(disguised, q @ t @ q.conj().transpose(0, 2, 1)):
            sides[k] = a
    return [PlantedOperator(BicomplexOperator(*sides), profile, **truth) for sides, truth in drawn]


def random_operator(rng: Rng, n: int, profile: str = "generic") -> PlantedOperator:
    """One planted operator of the profile drawn from rng: random_operators on a list of one."""
    return random_operators([rng], n, profile)[0]


def random_vector(rng: Rng, n: int) -> BicomplexVector:
    gen = rng.generator()
    return BicomplexVector(complex_normal(gen, n), complex_normal(gen, n))
