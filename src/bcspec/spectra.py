"""Eigenvalues, modified eigenvalues, and (modified) eigenspaces of T = e1*T1 + e2*T2.

Terminology, for an operator acting on C2^n:

* an eigenvalue is a complex lambda with T v = lambda v for some nonzero
  bicomplex v; this happens exactly when lambda belongs to the union of the
  component spectra.
* a modified eigenvalue is a bicomplex kappa = kappa1*e1 + kappa2*e2 with
  T v = kappa v for nonzero v; this happens exactly when kappa1 is an
  eigenvalue of T1 or kappa2 is an eigenvalue of T2.  Writing Y1, Y2 for the
  component spectra, the modified spectrum is the union of two cylinders

      Y = (Y1 xe C1)  ∪  (C1 xe Y2),

  an infinite set that strictly contains the finite grid Y1 xe Y2.
* the modified eigenspace of kappa splits as an idempotent product of the
  component eigenspaces, with {0} on any side whose component is not an
  eigenvalue.  One-sided spaces consist entirely of singular vectors
  (multiples of e1 or of e2).

The modified spectrum is therefore represented intensionally by (Y1, Y2)
plus the cylinder rule; it is never materialized.  component_spectra computes
that analysis once per operator as a SpectrumReport (stacked_spectra, for
many operators of one size at once), and every query below takes the
report.  Every eigenspace comes from modified_eigenspace, the
eigenspace of an eigenvalue lambda being that of lambda*e1 + lambda*e2.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, Bicomplex
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NonSquareError,
    NotModifiedEigenvalueError,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    EigenSet,
    as_carray,
    cluster_points,
    column_space,
    eigenvalues,
    frobenius,
    nullspace,
)
from .operators import BicomplexOperator, BicomplexVector, assemble_pair_basis


class ModifiedCase(Enum):
    """Which component memberships make kappa a modified eigenvalue."""

    ONLY_MINUS = "OnlyMinus"   # kappa1 in Y1, kappa2 not in Y2
    ONLY_PLUS = "OnlyPlus"     # kappa1 not in Y1, kappa2 in Y2
    BOTH = "Both"


def _case(minus_member: bool, plus_member: bool) -> ModifiedCase | None:
    """The case of kappa from kappa^- in Y1 and kappa^+ in Y2; None when neither holds."""
    if minus_member and plus_member:
        return ModifiedCase.BOTH
    if minus_member:
        return ModifiedCase.ONLY_MINUS
    if plus_member:
        return ModifiedCase.ONLY_PLUS
    return None


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The spectral analysis of one square operator T = e1*T1 + e2*T2.

    Every eigenvalue, modified-eigenvalue and eigenspace query is a question
    to this object: the component spectra Y1 and Y2, each carrying its
    membership tolerance, and the cylinder rule over them.  The grid
    Y1 xe Y2 and the family kappa1*e1 + w*e2 through a member kappa1 of Y1
    are classify_modified questions at the points the caller picks.
    """

    op: BicomplexOperator
    upsilon1: EigenSet
    upsilon2: EigenSet

    @cached_property
    def eigenvalues_of_T(self) -> EigenSet:
        """Union of Y1 and Y2, multiplicities summed across components.

        The spectrum of diag(t1, t2): cluster_points over both sides' clusters
        at the smaller of the two tolerances, so a value of one side merges
        with a value of the other only when each lies within the other side's
        tol, and an eigenvalue that only one side has keeps that side's value
        bit for bit.  Its members index Y1.values + Y2.values, Y1's first.
        """
        tol = min(self.upsilon1.tol, self.upsilon2.tol)
        clusters = cluster_points(self.upsilon1.values + self.upsilon2.values, tol)
        return EigenSet(tuple((v, m) for v, m, _ in clusters), tol, members=tuple(idx for *_, idx in clusters))

    def is_eigenvalue(self, lam) -> bool:
        """lambda is an eigenvalue of T iff it lies in Y1 ∪ Y2."""
        return self.upsilon1.contains(lam) or self.upsilon2.contains(lam)

    def classify_modified(self, kappa: Bicomplex) -> ModifiedCase | None:
        """Case tag for kappa, or None when kappa is not modified.

        kappa is modified iff kappa^- in Y1 or kappa^+ in Y2; the case says which.
        """
        return _case(self.upsilon1.contains(kappa.minus), self.upsilon2.contains(kappa.plus))

    def eigenspaces(self) -> Iterator[ModifiedEigenspace]:
        """The eigenspace of each eigenvalue lambda of T, in the order of eigenvalues_of_T.

        Each is modified_eigenspace of lambda*e1 + lambda*e2 on just the side
        clusters merged into lambda; the spaces are made one at a time and not kept.
        """
        union, k1 = self.eigenvalues_of_T, len(self.upsilon1.values)
        for lam, idx in zip(union.value_list(), union.members):
            sides = ([i for i in idx if i < k1], [i - k1 for i in idx if i >= k1])
            yield modified_eigenspace(self, Bicomplex.from_complex(lam), clusters=sides)

    def symbolic(self) -> str:
        """The modified spectrum as a union of two cylinders: (Y1 xe C1) ∪ (C1 xe Y2)."""
        return f"({_set_str(self.upsilon1)} xe C1) U (C1 xe {_set_str(self.upsilon2)})"


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


def _set_str(es: EigenSet) -> str:
    return "{" + ", ".join(_format_complex(v) for v in es.value_list()) + "}"


def component_spectra(
    op: BicomplexOperator, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> SpectrumReport:
    """Y1 = spectrum of t1 and Y2 = spectrum of t2, each with its own tolerance: stacked_spectra of the one operator."""
    return stacked_spectra([op], cluster_tol)[0]


def stacked_spectra(ops, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list[SpectrumReport]:
    """The SpectrumReport of each square operator of one size, from one eig of the (2B, n, n) stack of their sides.

    eigenvalues scales, thresholds and clusters each side alone, so every
    report is the one the operator would get alone, bit for bit.
    """
    for op in ops:
        if not op.is_square:
            raise NonSquareError(f"spectra need a square operator, got {op.shape}")
    sizes = {op.n for op in ops}
    if len(sizes) > 1:
        raise DimensionMismatchError(f"a stack needs operators of one size, got sizes {sorted(sizes)}")
    if not ops:
        return []
    sides = eigenvalues([t for op in ops for t in (op.t1, op.t2)], cluster_tol)
    return [SpectrumReport(op, *sides[2 * i : 2 * i + 2]) for i, op in enumerate(ops)]


@dataclass(eq=False)
class ModifiedEigenspace:
    """Constructive basis of { v : T v = kappa v }.

    The space splits componentwise: the orthonormal columns of the (n, k)
    array minus_basis span the t1-eigenspace of kappa^- (k = 0 when kappa^-
    is not an eigenvalue), those of plus_basis the t2-eigenspace of kappa^+.
    """

    kappa: Bicomplex
    case: ModifiedCase
    minus_basis: np.ndarray
    plus_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.minus_basis.shape[1] + self.plus_basis.shape[1]

    @cached_property
    def assembled(self) -> list[BicomplexVector]:
        """The lifted basis {e1*u_k} ∪ {e2*w_j}; its length is the dimension over C1."""
        return assemble_pair_basis((self.minus_basis, self.plus_basis))

    def max_residual(self, op: BicomplexOperator) -> float:
        """Largest ||T v - kappa v|| over the assembled basis; for v = e1*u (e2*u) that is the
        frobenius norm of the one nonzero side, t u - kappa^± u."""
        n = self.minus_basis.shape[0]
        if op.shape[1] != n:
            raise DimensionMismatchError(f"operator {op.shape} cannot act on a vector of length {n}")
        worst = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: as_carray rejects it
            for u in self.minus_basis.T:
                worst = max(worst, frobenius(as_carray(op.t1 @ u - self.kappa.minus * u, ndim=1)))
            for w in self.plus_basis.T:
                worst = max(worst, frobenius(as_carray(op.t2 @ w - self.kappa.plus * w, ndim=1)))
        return worst


def _side_space(es: EigenSet, t: np.ndarray, z: complex, near: list[int]) -> np.ndarray | None:
    """The eigenspace of z in t, whose spectrum is es, from the clusters near of es; None when near is empty.

    The eig vector es keeps when near is one simple cluster, else the
    nullspace of t - zI at threshold es.tol.
    """
    if not near:
        return None
    if len(near) == 1 and es.vectors[near[0]] is not None:
        return es.vectors[near[0]][:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: nullspace rejects it
        shifted = t - z * np.eye(len(t), dtype=np.complex128)
    return nullspace(shifted, threshold=es.tol)


def modified_eigenspace(report: SpectrumReport, kappa: Bicomplex, clusters=None) -> ModifiedEigenspace:
    """Component eigenspaces of kappa assembled per the case structure.

    Each side comes from _side_space, {0} where kappa^- (kappa^+) is not an
    eigenvalue of t1 (t2); the case says which sides are nonempty.  A side's
    clusters are those within its tol of kappa^- (kappa^+), the cylinder
    rule, or the (Y1, Y2) index lists clusters, which only eigenspaces passes.
    """
    op = report.op
    near = clusters if clusters is not None else (report.upsilon1.near(kappa.minus), report.upsilon2.near(kappa.plus))
    minus = _side_space(report.upsilon1, op.t1, kappa.minus, near[0])
    plus = _side_space(report.upsilon2, op.t2, kappa.plus, near[1])
    case = _case(minus is not None, plus is not None)
    if case is None:
        raise NotModifiedEigenvalueError(f"{kappa} is not a modified eigenvalue")
    zero = np.zeros((op.n, 0), dtype=np.complex128)
    return ModifiedEigenspace(kappa, case, zero if minus is None else minus, zero if plus is None else plus)


@dataclass(frozen=True)
class EigenspaceSumReport:
    """Dimensions of the sum and intersection of two modified eigenspaces.

    Both spaces split componentwise, so sum_dim is the sum over the two
    sides of one rank test each, the rank of the stacked bases [U W].  The
    intersection follows by Grassmann's formula,
    dim_first + dim_second - sum_dim, and the sum is direct iff that is 0.
    is_direct states the computed finding for this pair only; nothing is
    claimed about whether such sums are direct in general.
    """

    dim_first: int
    dim_second: int
    sum_dim: int

    @property
    def intersection_dim(self) -> int:
        return self.dim_first + self.dim_second - self.sum_dim

    @property
    def is_direct(self) -> bool:
        return self.intersection_dim == 0


def eigenspace_sum(
    report: SpectrumReport, kappa: Bicomplex, kappa_prime: Bicomplex, tol: float = DEFAULT_TOL
) -> EigenspaceSumReport:
    if kappa == kappa_prime:
        raise InvalidArgumentError("the two modified eigenvalues must differ")
    first = modified_eigenspace(report, kappa)
    second = modified_eigenspace(report, kappa_prime)
    sum_dim = sum(
        column_space(np.hstack([a, b]), tol).shape[1]
        for a, b in ((first.minus_basis, second.minus_basis), (first.plus_basis, second.plus_basis))
    )
    return EigenspaceSumReport(first.dim, second.dim, sum_dim)
