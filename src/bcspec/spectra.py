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
that analysis once per operator as a SpectrumReport, and every query below
takes the report.  Every eigenspace comes from modified_eigenspace, the
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
    BaseNotEigenvalueError,
    DimensionMismatchError,
    InvalidArgumentError,
    NonSquareError,
    NotModifiedEigenvalueError,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    CSubspace,
    EigenSet,
    as_carray,
    cluster_points,
    eigenvalues,
    frobenius,
    nullspace,
    subspace_intersection,
    subspace_sum,
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


@dataclass(frozen=True)
class ModifiedEigenvalue:
    kappa: Bicomplex
    case: ModifiedCase | None  # None only on a rejected containment grid pair


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The spectral analysis of one square operator T = e1*T1 + e2*T2.

    Every eigenvalue, modified-eigenvalue, family, containment and eigenspace
    query is a question to this object: the component spectra Y1 and Y2,
    each carrying its membership tolerance, and the cylinder rule over them.
    """

    op: BicomplexOperator
    upsilon1: EigenSet
    upsilon2: EigenSet

    @cached_property
    def eigenvalues_of_T(self) -> EigenSet:
        """Clustered union of Y1 and Y2, multiplicities summed across components.

        This is the spectrum of the block embedding diag(t1, t2) as a
        multiset, clustered at the larger of the two tolerances.
        """
        tol = max(self.upsilon1.tol, self.upsilon2.tol)
        combined = self.upsilon1.multiset() + self.upsilon2.multiset()
        return EigenSet(tuple(cluster_points(combined, tol)), tol)

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

        Each is modified_eigenspace of lambda*e1 + lambda*e2; the spaces are
        made one at a time and not kept.
        """
        for lam in self.eigenvalues_of_T.value_list():
            yield modified_eigenspace(self, Bicomplex.from_complex(lam))

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
    """Y1 = spectrum of t1 and Y2 = spectrum of t2, each with its own tolerance."""
    if not op.is_square:
        raise NonSquareError(f"spectra need a square operator, got {op.shape}")
    return SpectrumReport(op, eigenvalues(op.t1, cluster_tol), eigenvalues(op.t2, cluster_tol))


def modified_family(
    report: SpectrumReport, from_minus: bool, base, samples
) -> list[ModifiedEigenvalue]:
    """The infinite one-parameter family through a component eigenvalue.

    With base in Y1, every base*e1 + w*e2 is a modified eigenvalue, for all
    complex w; symmetrically for base in Y2.  Returns the family at the given
    sample points.
    """
    base = complex(base)
    if not (report.upsilon1 if from_minus else report.upsilon2).contains(base):
        raise BaseNotEigenvalueError(f"{base} is not in the spectrum of t{1 if from_minus else 2}")
    out = []
    for w in samples:
        kappa = Bicomplex(base, complex(w)) if from_minus else Bicomplex(complex(w), base)
        case = report.classify_modified(kappa)
        assert case is not None
        out.append(ModifiedEigenvalue(kappa, case))
    return out


@dataclass
class ContainmentRecord:
    """Check of the grid Y1 xe Y2 against the modified spectrum.

    Each grid pair carries the case classify_modified gives it, which must be
    Both (None when the pair is rejected); witness is a modified eigenvalue
    outside the grid, demonstrating proper containment.  A witness always
    exists because Y2 is finite while the plus side of the cylinder
    (Y1 xe C1) ranges over all of C1.
    """

    pairs: list[ModifiedEigenvalue]
    witness: ModifiedEigenvalue | None


def contains_idempotent_product(report: SpectrumReport) -> ContainmentRecord:
    pairs = []
    for k1 in report.upsilon1.value_list():
        for k2 in report.upsilon2.value_list():
            kappa = Bicomplex(k1, k2)
            pairs.append(ModifiedEigenvalue(kappa, report.classify_modified(kappa)))
    witness = None
    if report.upsilon1.values:
        # Plus component pushed past every member of Y2: outside the grid by
        # construction, still modified through the minus side.
        k1 = report.upsilon1.value_list()[0]
        away = max((abs(v) for v in report.upsilon2.value_list()), default=0.0)
        k2 = away + 1.0 + 10.0 * report.upsilon2.tol
        kappa = Bicomplex(k1, k2)
        case = report.classify_modified(kappa)
        if case is ModifiedCase.ONLY_MINUS:
            witness = ModifiedEigenvalue(kappa, case)
    return ContainmentRecord(pairs, witness)


@dataclass(eq=False)
class ModifiedEigenspace:
    """Constructive basis of { v : T v = kappa v }.

    The space splits componentwise: minus_basis spans the t1-eigenspace of
    kappa^- (zero space when kappa^- is not an eigenvalue), plus_basis the
    t2-eigenspace of kappa^+.
    """

    kappa: Bicomplex
    case: ModifiedCase
    minus_basis: CSubspace
    plus_basis: CSubspace

    @property
    def dim(self) -> int:
        return self.minus_basis.dim + self.plus_basis.dim

    @cached_property
    def assembled(self) -> list[BicomplexVector]:
        """The lifted basis {e1*u_k} ∪ {e2*w_j}; its length is the dimension over C1."""
        return assemble_pair_basis((self.minus_basis, self.plus_basis))

    @property
    def all_eigenvectors_singular(self) -> bool:
        """The structural guarantee of the one-sided cases.

        Every member is then a multiple of e1 (or of e2), hence a singular
        vector.  In the Both case the flag is False.
        """
        return self.case is not ModifiedCase.BOTH

    def max_residual(self, op: BicomplexOperator) -> float:
        """Largest ||T v - kappa v|| over the assembled basis; for v = e1*u (e2*u) that is the
        frobenius norm of the one nonzero side, t u - kappa^± u."""
        n = self.minus_basis.ambient_dim
        if op.shape[1] != n:
            raise DimensionMismatchError(f"operator {op.shape} cannot act on a vector of length {n}")
        worst = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: as_carray rejects it
            for u in self.minus_basis.vectors():
                worst = max(worst, frobenius(as_carray(op.t1 @ u - self.kappa.minus * u, ndim=1)))
            for w in self.plus_basis.vectors():
                worst = max(worst, frobenius(as_carray(op.t2 @ w - self.kappa.plus * w, ndim=1)))
        return worst


def _side_space(es: EigenSet, t: np.ndarray, z: complex) -> CSubspace | None:
    """The eigenspace of z in t, whose spectrum is es; None when no cluster of es is within es.tol.

    The one choice of route: the eig vector es keeps when exactly one cluster
    is near and it is simple, else the nullspace of t - zI at threshold es.tol.
    """
    near = np.flatnonzero(es.distances([z])[0] <= es.tol)
    if len(near) == 0:
        return None
    if len(near) == 1 and es.vectors[near[0]] is not None:
        return CSubspace(len(t), es.vectors[near[0]][:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: nullspace rejects it
        shifted = t - z * np.eye(len(t), dtype=np.complex128)
    return nullspace(shifted, threshold=es.tol)


def modified_eigenspace(report: SpectrumReport, kappa: Bicomplex) -> ModifiedEigenspace:
    """Component eigenspaces of kappa assembled per the case structure.

    Each side comes from _side_space, {0} where kappa^- (kappa^+) is not an
    eigenvalue of t1 (t2); the case says which sides are nonempty.
    """
    op = report.op
    minus = _side_space(report.upsilon1, op.t1, kappa.minus)
    plus = _side_space(report.upsilon2, op.t2, kappa.plus)
    case = _case(minus is not None, plus is not None)
    if case is None:
        raise NotModifiedEigenvalueError(f"{kappa} is not a modified eigenvalue")
    zero = CSubspace.zero(op.n)
    return ModifiedEigenspace(kappa, case, zero if minus is None else minus, zero if plus is None else plus)


@dataclass(frozen=True)
class EigenspaceSumReport:
    """Dimensions of the sum and intersection of two modified eigenspaces.

    Computed per idempotent component (both spaces split componentwise), so
    sum_dim and intersection_dim are sums over the two sides.  is_direct
    states the computed finding for this pair only; nothing is claimed about
    whether such sums are direct in general.
    """

    kappa: Bicomplex
    kappa_prime: Bicomplex
    dim_first: int
    dim_second: int
    sum_dim: int
    intersection_dim: int
    is_direct: bool


def eigenspace_sum(
    report: SpectrumReport, kappa: Bicomplex, kappa_prime: Bicomplex, tol: float = DEFAULT_TOL
) -> EigenspaceSumReport:
    if kappa == kappa_prime:
        raise InvalidArgumentError("the two modified eigenvalues must differ")
    first = modified_eigenspace(report, kappa)
    second = modified_eigenspace(report, kappa_prime)
    sum_dim = 0
    inter_dim = 0
    for a, b in (
        (first.minus_basis, second.minus_basis),
        (first.plus_basis, second.plus_basis),
    ):
        sum_dim += subspace_sum(a, b, tol).dim
        inter_dim += subspace_intersection(a, b, tol).dim
    return EigenspaceSumReport(
        kappa=kappa,
        kappa_prime=kappa_prime,
        dim_first=first.dim,
        dim_second=second.dim,
        sum_dim=sum_dim,
        intersection_dim=inter_dim,
        is_direct=inter_dim == 0,
    )
