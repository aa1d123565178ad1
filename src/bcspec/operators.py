"""Vectors in C2^n, matrices over C2, and operators T = e1*T1 + e2*T2.

Applying such an operator is componentwise on the idempotent split of the
argument: the minus components go through T1, the plus components through
T2.  Kernel and image therefore split as idempotent products of the
component kernels/images, and T is singular exactly when one of the
components is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DEFAULT_TOL, IDEAL_CLASSES, Bicomplex, IdealClass, classify_parts
from .errors import DimensionMismatchError, NonSquareError
from .linalg import as_carray, column_space, frobenius, is_singular_matrix, nullspace


def _component_pair(a, b, ndim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Both components as finite complex arrays of the given ndim (see as_carray) and of one shape."""
    a, b = as_carray(a, ndim), as_carray(b, ndim)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"component shapes differ: {a.shape} vs {b.shape}")
    return a, b


class VectorClass(Enum):
    """Singularity classification of a vector in C2^n."""

    ZERO = "Zero"
    SINGULAR_NONZERO = "SingularNonzero"
    NONSINGULAR = "NonSingular"


@dataclass(eq=False)
class BicomplexVector:
    """Element of C2^n as the pair of its idempotent component vectors."""

    minus: np.ndarray
    plus: np.ndarray

    def __post_init__(self):
        self.minus, self.plus = _component_pair(self.minus, self.plus, ndim=1)

    @property
    def n(self) -> int:
        return self.minus.shape[0]

    def entry(self, i: int) -> Bicomplex:
        return Bicomplex(complex(self.minus[i]), complex(self.plus[i]))

    def norm(self) -> float:
        """Euclidean norm of the concatenated component vectors."""
        return math.hypot(frobenius(self.minus), frobenius(self.plus))

    def is_exact_zero(self) -> bool:
        return not (np.any(self.minus) or np.any(self.plus))

    def scale(self, kappa) -> "BicomplexVector":
        """Multiply every entry by a bicomplex (or complex) scalar."""
        if not isinstance(kappa, Bicomplex):
            kappa = Bicomplex.from_complex(kappa)
        return BicomplexVector(kappa.minus * self.minus, kappa.plus * self.plus)

    def __add__(self, other: "BicomplexVector") -> "BicomplexVector":
        return BicomplexVector(self.minus + other.minus, self.plus + other.plus)

    def __sub__(self, other: "BicomplexVector") -> "BicomplexVector":
        return BicomplexVector(self.minus - other.minus, self.plus - other.plus)

    def __neg__(self) -> "BicomplexVector":
        return BicomplexVector(-self.minus, -self.plus)


def classify_vector(v: BicomplexVector, tol: float = DEFAULT_TOL) -> VectorClass:
    """Zero if every entry is Zero; non-singular if some entry is; singular otherwise.

    A vector can be nonzero on both component sides and still be singular:
    (e1, e2) has nonzero minus and plus parts but every entry is a zero divisor.
    All entries are classified at once (see classify_parts), so any overflow raises.
    """
    classes = {IDEAL_CLASSES[c] for c in set(classify_parts(v.minus, v.plus, tol).tolist())}
    if classes <= {IdealClass.ZERO}:
        return VectorClass.ZERO
    return VectorClass.NONSINGULAR if IdealClass.NONSINGULAR in classes else VectorClass.SINGULAR_NONZERO


@dataclass(eq=False)
class BicomplexMatrix:
    """Matrix over C2 as the pair of its complex component matrices."""

    minus: np.ndarray
    plus: np.ndarray

    def __post_init__(self):
        self.minus, self.plus = _component_pair(self.minus, self.plus)

    @property
    def shape(self) -> tuple[int, int]:
        return self.minus.shape

    def entry(self, i: int, j: int) -> Bicomplex:
        return Bicomplex(complex(self.minus[i, j]), complex(self.plus[i, j]))


@dataclass(eq=False)
class BicomplexOperator:
    """The map T = e1*T1 + e2*T2 stored as the component matrix pair (t1, t2).

    Matrices are relative to the standard basis.  Rectangular pairs are
    admitted for kernel/image work; every spectral operation checks
    squareness first.
    """

    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        self.t1, self.t2 = _component_pair(self.t1, self.t2)

    @property
    def shape(self) -> tuple[int, int]:
        return self.t1.shape

    @property
    def is_square(self) -> bool:
        return self.t1.shape[0] == self.t1.shape[1]

    @property
    def n(self) -> int:
        if not self.is_square:
            raise NonSquareError(f"operator is {self.shape}, not square")
        return self.t1.shape[0]


def apply(op: BicomplexOperator, v: BicomplexVector) -> BicomplexVector:
    """T v = e1*(t1 @ v.minus) + e2*(t2 @ v.plus)."""
    if op.shape[1] != v.n:
        raise DimensionMismatchError(f"operator {op.shape} cannot act on a vector of length {v.n}")
    return BicomplexVector(op.t1 @ v.minus, op.t2 @ v.plus)


def shift(op: BicomplexOperator, kappa) -> BicomplexOperator:
    """T - kappa*I componentwise; a complex kappa embeds diagonally."""
    n = op.n
    if not isinstance(kappa, Bicomplex):
        kappa = Bicomplex.from_complex(kappa)
    eye = np.eye(n, dtype=np.complex128)
    return BicomplexOperator(op.t1 - kappa.minus * eye, op.t2 - kappa.plus * eye)


def kernel(op: BicomplexOperator, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Component nullspace pair (ker t1, ker t2), each an orthonormal basis array (see nullspace).

    The bicomplex kernel is exactly {e1*u + e2*w : u in the first, w in the
    second}; its dimension over C1 is the sum of the component nullities.
    """
    return nullspace(op.t1, tol), nullspace(op.t2, tol)


def image(op: BicomplexOperator, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Component column-space pair (Im t1, Im t2), each an orthonormal basis array (see column_space)."""
    return column_space(op.t1, tol), column_space(op.t2, tol)


def assemble_pair_basis(pair: tuple[np.ndarray, np.ndarray]) -> list[BicomplexVector]:
    """Materialize {e1*u_k} ∪ {e2*w_j} from the columns of a component basis pair."""
    minus_basis, plus_basis = pair
    out = [BicomplexVector(u, np.zeros_like(u)) for u in minus_basis.T]
    out.extend(BicomplexVector(np.zeros_like(w), w) for w in plus_basis.T)
    return out


def is_singular_operator(op: BicomplexOperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff t1 or t2 is singular; one SVD call decides both."""
    if not op.is_square:
        raise NonSquareError(f"singularity is defined for square operators, got {op.shape}")
    return any(is_singular_matrix((op.t1, op.t2), tol))
