"""Spectral theory: component spectra, modified eigenvalues, eigenspace structure."""

import math

import numpy as np
import pytest

from bcspec import (
    Bicomplex,
    BicomplexOperator,
    BicomplexVector,
    DimensionMismatchError,
    EigenSet,
    ModifiedCase,
    NonSquareError,
    NotModifiedEigenvalueError,
    VectorClass,
    classify_vector,
    component_spectra,
    eigenspace_sum,
    eigenvalues,
    is_singular_matrix,
    is_singular_operator,
    modified_eigenspace,
    shift,
)
import bcspec.linalg
import bcspec.spectra
from bcspec.spectra import stacked_spectra
from bcspec.oracle import (
    PROFILES,
    Rng,
    brute_modified_eigenspace,
    elimination_nullspace,
    random_operator,
    residual,
)
from conftest import in_span


def _values(eigenset):
    return sorted(eigenset.value_list(), key=lambda z: (z.real, z.imag))


def _profile_ops(seed: int, count: int, scale: float = 1.0) -> list[BicomplexOperator]:
    """count operators of each oracle profile, n = 2-8, with t1 multiplied by scale."""
    ops = []
    for p, profile in enumerate(PROFILES):
        for trial in range(count):
            op = random_operator(Rng(seed, (p, trial)), 2 + trial % 7, profile).operator
            ops.append(BicomplexOperator(scale * op.t1, op.t2))
    return ops


def _ldexp(t: np.ndarray, k: int) -> np.ndarray:
    """2**k * t, exactly: each real and imaginary part scaled by ldexp."""
    return np.ldexp(t.view(np.float64), k).view(np.complex128)


def _shape(report) -> list[tuple[int, int, int]]:
    """(multiplicity, minus dimension, plus dimension) of each eigenvalue of T, in order."""
    spaces = report.eigenspaces()
    return [(m, s.minus_basis.shape[1], s.plus_basis.shape[1]) for (_, m), s in zip(report.eigenvalues_of_T.values, spaces)]


def _is_eigenvalue(op, lam):
    return component_spectra(op).is_eigenvalue(lam)


def _modified_verdict(op, kappa):
    """The criterion's verdict and case tag, both read off the report."""
    case = component_spectra(op).classify_modified(kappa)
    return case is not None, case


class TestComponentSpectra:
    def test_worked_example(self, ex_op):
        rep = component_spectra(ex_op)
        assert _values(rep.upsilon1) == [0.0, 1.0]
        assert _values(rep.upsilon2) == [1.0]
        assert _values(rep.eigenvalues_of_T) == [0.0, 1.0]

    def test_report_owns_its_operator(self, ex_op):
        assert component_spectra(ex_op).op is ex_op

    def test_each_side_carries_its_cluster_tolerance(self, ex_op):
        for ct in (1e-8, 1e-3):
            rep = component_spectra(ex_op, ct)
            assert rep.upsilon1.tol == eigenvalues(ex_op.t1, ct).tol
            assert rep.upsilon2.tol == eigenvalues(ex_op.t2, ct).tol

    def test_zero_operator(self):
        rep = component_spectra(BicomplexOperator.zero(2))
        assert rep.upsilon1.values == ((0.0 + 0.0j, 2),)
        assert rep.upsilon2.values == ((0.0 + 0.0j, 2),)

    def test_triangular_diagonals(self):
        t1 = np.triu(np.ones((3, 3), dtype=complex))
        np.fill_diagonal(t1, [1, 2, 3])
        t2 = np.triu(np.ones((3, 3), dtype=complex))
        np.fill_diagonal(t2, [4, 5, 6])
        rep = component_spectra(BicomplexOperator(t1, t2))
        assert _values(rep.upsilon1) == [1.0, 2.0, 3.0]
        assert _values(rep.upsilon2) == [4.0, 5.0, 6.0]
        assert _values(rep.eigenvalues_of_T) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def _bits(es: EigenSet):
    """Every bit of an EigenSet's values, multiplicities, tol and kept vectors."""
    values = np.array(es.value_list(), dtype=np.complex128).tobytes()
    vectors = [None if v is None else v.tobytes() for v in es.vectors]
    return values, [m for _, m in es.values], es.tol.hex(), vectors


def _stack_cases() -> list[BicomplexOperator]:
    """Operators whose two sides one LAPACK call must treat as two separate matrices."""
    ops = _profile_ops(2121, 2)
    ops += [BicomplexOperator(_ldexp(op.t1, 1000), op.t2) for op in ops[:4]]  # scales 2**1000 apart
    ops += [BicomplexOperator(op.t1, _ldexp(op.t2, -1000)) for op in ops[4:8]]
    ops += [
        BicomplexOperator(np.diag([1.7e308, -1.7e308, 1]).astype(complex), np.diag([1, 2, 3]).astype(complex)),
        BicomplexOperator(np.array([[1.5e308 + 1.5e308j]]), np.array([[2.0 + 0j]])),
        BicomplexOperator(np.zeros((0, 0)), np.zeros((0, 0))),
        random_operator(Rng(2121, (9,)), 1).operator,
        random_operator(Rng(2121, (10,)), 1, "rank-deficient").operator,
    ]
    gen = np.random.default_rng(40)
    t = gen.standard_normal((2, 40, 40)) + 1j * gen.standard_normal((2, 40, 40))
    ops.append(BicomplexOperator(np.asfortranarray(t[0]), t[1].T))  # layouts the stack does not keep
    for op in ops[:8]:  # singular on exactly one side
        lam = eigenvalues(op.t2).value_list()[0]
        ops.append(shift(op, Bicomplex(lam + 100.0, lam)))
    return ops


_STACKS = _stack_cases()
STACK_CASES = pytest.mark.parametrize("op", _STACKS, ids=[f"{i}-n{op.t1.shape[0]}" for i, op in enumerate(_STACKS)])


class TestOneCallPerOperator:
    @STACK_CASES
    def test_stacked_spectra_are_the_per_side_spectra(self, op):
        report = component_spectra(op)
        assert _bits(report.upsilon1) == _bits(eigenvalues(op.t1))
        assert _bits(report.upsilon2) == _bits(eigenvalues(op.t2))

    @STACK_CASES
    def test_stacked_singularity_is_the_per_side_verdict(self, op):
        assert is_singular_operator(op) == (is_singular_matrix(op.t1) or is_singular_matrix(op.t2))
        assert is_singular_matrix(np.stack([op.t1, op.t2])) == [is_singular_matrix(op.t1), is_singular_matrix(op.t2)]

    def test_stacked_spectra_of_many_operators_are_each_alone(self):
        # every stack case of one size in one eig: scales 2**1000 apart, top-of-range and singular sides
        by_size = {}
        for op in _STACKS:
            by_size.setdefault(op.n, []).append(op)
        assert max(map(len, by_size.values())) > 4
        for ops in by_size.values():
            for op, report in zip(ops, stacked_spectra(ops)):
                alone = component_spectra(op)
                assert report.op is op
                assert (_bits(report.upsilon1), _bits(report.upsilon2)) == (_bits(alone.upsilon1), _bits(alone.upsilon2))

    def test_a_stack_takes_square_operators_of_one_size(self, ex_op):
        assert stacked_spectra([]) == []
        with pytest.raises(DimensionMismatchError):
            stacked_spectra([ex_op, BicomplexOperator.zero(3)])
        with pytest.raises(NonSquareError):
            stacked_spectra([ex_op, BicomplexOperator(np.ones((2, 3)), np.ones((2, 3)))])

    def test_a_stack_is_scaled_in_a_copy(self):
        t = np.array([[[1e300, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1e-300]]], dtype=complex)
        before = t.copy()
        eigenvalues(t)
        is_singular_matrix(t)
        assert t.tobytes() == before.tobytes()


class TestEigenvalueCriterion:
    def test_one_is_eigenvalue(self, ex_op):
        assert _is_eigenvalue(ex_op, 1.0)

    def test_two_is_not(self, ex_op):
        assert not _is_eigenvalue(ex_op, 2.0)
        # singularity route: both shifted components stay nonsingular
        shifted = shift(ex_op, 2.0)
        assert not is_singular_operator(shifted)

    def test_identity(self):
        assert _is_eigenvalue(BicomplexOperator.identity(3), 1.0)

    def test_agrees_with_shifted_singularity(self, ex_op):
        for lam in [0.0, 1.0, 2.0, -1.0, 1j]:
            assert _is_eigenvalue(ex_op, lam) == is_singular_operator(shift(ex_op, lam))


class TestModifiedCriterion:
    def test_one_sided_member(self, ex_op):
        verdict, case = _modified_verdict(ex_op, Bicomplex(1.0, 2.0))
        assert verdict and case is ModifiedCase.ONLY_MINUS

    def test_family_members(self, ex_op):
        for r in [0.0, 5.0, 1j]:
            verdict, _ = _modified_verdict(ex_op, Bicomplex(1.0, r))
            assert verdict

    def test_non_member(self, ex_op):
        verdict, case = _modified_verdict(ex_op, Bicomplex(7.0, 9.0))
        assert not verdict and case is None
        assert not is_singular_operator(shift(ex_op, Bicomplex(7.0, 9.0)))

    def test_both_case(self, ex_op):
        verdict, case = _modified_verdict(ex_op, Bicomplex(1.0, 1.0))
        assert verdict and case is ModifiedCase.BOTH

    def test_only_plus_case(self, ex_op):
        verdict, case = _modified_verdict(ex_op, Bicomplex(9.0, 1.0))
        assert verdict and case is ModifiedCase.ONLY_PLUS


class TestModifiedFamily:
    """kappa1*e1 + w*e2 is modified for every w when kappa1 is in Y1 (and symmetrically)."""

    def test_family_through_one(self, ex_op):
        for w in [0.0, 2.0, 1j, 1 + 1j]:
            verdict, _ = _modified_verdict(ex_op, Bicomplex(1.0, w))
            assert verdict

    def test_family_through_zero(self, ex_op):
        verdict, _ = _modified_verdict(ex_op, Bicomplex(0.0, 3.0))
        assert verdict

    def test_plus_side_family(self, ex_op):
        verdict, _ = _modified_verdict(ex_op, Bicomplex(7.0, 1.0))
        assert verdict

    def test_base_outside_rejected(self, ex_op):
        assert not component_spectra(ex_op).upsilon1.contains(4.0)


class TestUpsilonDescription:
    def test_symbolic_form(self, ex_op):
        desc = component_spectra(ex_op)
        assert desc.symbolic() == "({0, 1} xe C1) U (C1 xe {1})"

    def test_predicate_matches_membership(self, ex_op):
        rng = np.random.default_rng(2)
        for _ in range(50):
            kappa = Bicomplex(
                complex(rng.standard_normal(), rng.standard_normal()),
                complex(rng.standard_normal(), rng.standard_normal()),
            )
            # membership by the block-embedding oracle, not by the report
            verdict = brute_modified_eigenspace(ex_op, kappa).shape[1] > 0
            assert (component_spectra(ex_op).classify_modified(kappa) is not None) == verdict

    def test_minus_members_always_contained(self, ex_op):
        desc = component_spectra(ex_op)
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = complex(rng.standard_normal(), rng.standard_normal()) * 10
            assert desc.classify_modified(Bicomplex(1.0, w)) is not None

    def test_never_empty(self):
        rng = np.random.default_rng(4)
        for n in range(1, 5):
            op = BicomplexOperator(
                rng.standard_normal((n, n)) + 0j, rng.standard_normal((n, n)) + 0j
            )
            desc = component_spectra(op)
            assert desc.upsilon1.values and desc.upsilon2.values


def _grid_cases(report) -> list:
    """The case classify_modified gives each pair of the grid Y1 xe Y2."""
    y1, y2 = report.upsilon1.value_list(), report.upsilon2.value_list()
    return [report.classify_modified(Bicomplex(k1, k2)) for k1 in y1 for k2 in y2]


def _witness(report) -> Bicomplex:
    """The containment witness verify checks: Y1's first value, and a plus part past every member of Y2."""
    away = max(abs(v) for v in report.upsilon2.value_list())
    return Bicomplex(report.upsilon1.value_list()[0], away + 1.0 + 10.0 * report.upsilon2.tol)


class TestContainment:
    """The grid Y1 xe Y2 lies properly inside the modified spectrum."""

    def test_worked_example(self, ex_op):
        rep = component_spectra(ex_op)
        assert _grid_cases(rep) == [ModifiedCase.BOTH] * 2  # {0,1} x {1}
        assert rep.classify_modified(_witness(rep)) is ModifiedCase.ONLY_MINUS

    def test_witness_outside_grid(self, ex_op):
        rep = component_spectra(ex_op)
        witness = _witness(rep)
        assert rep.upsilon1.contains(witness.minus)
        assert not rep.upsilon2.contains(witness.plus)

    def test_identity_operator(self):
        assert _grid_cases(component_spectra(BicomplexOperator.identity(2))) == [ModifiedCase.BOTH]


class TestModifiedEigenspace:
    def test_one_sided_space(self, ex_op):
        space = modified_eigenspace(component_spectra(ex_op), Bicomplex(1.0, 2.0))
        assert space.case is ModifiedCase.ONLY_MINUS
        assert space.dim == 1
        assert in_span(space.minus_basis, [1, 0])
        assert space.plus_basis.shape[1] == 0
        v = space.assembled[0]
        assert classify_vector(v) is VectorClass.SINGULAR_NONZERO
        assert residual(ex_op, Bicomplex(1.0, 2.0), v) <= 1e-12

    def test_both_case_space(self, ex_op):
        space = modified_eigenspace(component_spectra(ex_op), Bicomplex(1.0, 1.0))
        assert space.case is ModifiedCase.BOTH
        assert space.dim == 3
        assert space.minus_basis.shape[1] == 1 and space.plus_basis.shape[1] == 2
        # contains the non-singular eigenvector (1, e2)
        assert in_span(space.minus_basis, [1, 0])
        assert in_span(space.plus_basis, [1, 1])

    def test_zero_minus_eigenvalue(self, ex_op):
        space = modified_eigenspace(component_spectra(ex_op), Bicomplex(0.0, 0.0))
        assert space.dim == 1
        assert in_span(space.minus_basis, [0, 1])

    def test_assembled_is_lazy_and_cached(self, ex_op):
        space = modified_eigenspace(component_spectra(ex_op), Bicomplex(1.0, 1.0))
        assert "assembled" not in vars(space)
        first = space.assembled
        assert len(first) == space.dim == 3
        assert space.assembled is first

    def test_nullspace_threshold_is_the_report_tolerance(self):
        # t1 has eigenvalues 1 and 1 + 1e-7: apart at cluster_tol 1e-8, one cluster at 1e-6
        op = BicomplexOperator(np.diag([1.0, 1.0 + 1e-7]).astype(complex), np.eye(2, dtype=complex))
        kappa = Bicomplex(1.0, 5.0)
        assert modified_eigenspace(component_spectra(op, 1e-8), kappa).minus_basis.shape[1] == 1
        assert modified_eigenspace(component_spectra(op, 1e-6), kappa).minus_basis.shape[1] == 2

    def test_non_member_rejected(self, ex_op):
        with pytest.raises(NotModifiedEigenvalueError):
            modified_eigenspace(component_spectra(ex_op), Bicomplex(7.0, 9.0))

    def test_dims_match_block_oracle(self, ex_op):
        for kappa in [Bicomplex(1.0, 2.0), Bicomplex(1.0, 1.0), Bicomplex(0.0, 0.0),
                      Bicomplex(0.0, 1.0), Bicomplex(5.0, 1.0)]:
            space = modified_eigenspace(component_spectra(ex_op), kappa)
            assert space.dim == brute_modified_eigenspace(ex_op, kappa).shape[1]


class TestEigenspaces:
    """One route to every eigenspace: eigenspaces() yields modified_eigenspace of each eigenvalue,
    whose sides take the kept eig vector of a lone simple cluster and the rank test otherwise."""

    @staticmethod
    def _clustered_op():
        # t1: eigenvalue 1 of multiplicity 3; t2: eigenvalue 5 of multiplicity 2; the rest simple
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        q2, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        t1 = q1 @ np.diag([1, 1, 1, 2, 3, 4, 6j, -1j]) @ q1.conj().T
        t2 = q2 @ np.diag([5, 5, 2, 7, 8, 9, 1 + 1j, -3]) @ q2.conj().T
        return BicomplexOperator(t1, t2)

    @staticmethod
    def _count_nullspace(monkeypatch) -> list:
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a)
            return bcspec.linalg.nullspace(a, *args, **kwargs)

        monkeypatch.setattr(bcspec.spectra, "nullspace", counted)
        return calls

    @staticmethod
    def _seeded_ops():
        """Operators of every oracle profile, n = 1-8."""
        return [
            random_operator(Rng(12, (trial,)), 1 + trial % 8, profile).operator
            for profile in PROFILES
            for trial in range(8)
        ]

    def test_rank_test_once_per_multiple_cluster(self, monkeypatch):
        op = self._clustered_op()
        report = component_spectra(op)
        calls = self._count_nullspace(monkeypatch)
        spaces = list(report.eigenspaces())
        assert [m for _, m in report.eigenvalues_of_T.values if m > 1] == [3, 2, 2]
        side_multiples = [m for es in (report.upsilon1, report.upsilon2) for _, m in es.values if m > 1]
        assert side_multiples == [3, 2]
        # 1 (t1) and 5 (t2) take the rank test once each; 2, simple on each
        # side, takes an eig vector on both.
        assert len(calls) == len(side_multiples)
        for (lam, _), space in zip(report.eigenvalues_of_T.values, spaces):
            kappa = Bicomplex.from_complex(lam)
            assert space.dim == brute_modified_eigenspace(op, kappa).shape[1]
            assert space.case is report.classify_modified(kappa)
            assert space.max_residual(op) <= 1e-8 * (1.0 + np.linalg.norm(op.t1) + np.linalg.norm(op.t2))

    def test_each_space_is_the_modified_eigenspace_of_its_eigenvalue(self, ex_op):
        for op in [*self._seeded_ops(), self._clustered_op(), ex_op]:
            report = component_spectra(op)
            for lam, space in zip(report.eigenvalues_of_T.value_list(), report.eigenspaces()):
                direct = modified_eigenspace(report, Bicomplex.from_complex(lam))
                assert space.case is direct.case
                for got, want in ((space.minus_basis, direct.minus_basis), (space.plus_basis, direct.plus_basis)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_simple_sides_take_no_rank_test(self, monkeypatch):
        report = component_spectra(self._clustered_op())
        calls = self._count_nullspace(monkeypatch)
        # 2 is simple on both sides; 3, 6j (t1) and 7, -3 (t2) are simple on theirs
        for kappa in (Bicomplex(2, 2), Bicomplex(3, 7), Bicomplex(6j, -3)):
            space = modified_eigenspace(report, kappa)
            assert space.case is ModifiedCase.BOTH and space.dim == 2
        assert calls == []

    def test_half_a_tolerance_off_a_simple_eigenvalue(self):
        # a member must get its eigenvector, with residual within the side's tol,
        # where the rank test at that tol may find t - zI nonsingular
        checked = 0
        for op in self._seeded_ops():
            report = component_spectra(op)
            es = report.upsilon1
            for lam, m in es.values:
                z = lam + es.tol / 2
                if m > 1 or len(es.near(z)) != 1:
                    continue
                space = modified_eigenspace(report, Bicomplex(z, 1e9))
                assert space.case is ModifiedCase.ONLY_MINUS and space.dim == 1
                assert space.max_residual(op) <= es.tol
                checked += 1
        assert checked > 50

    def test_is_a_generator(self, ex_op):
        spaces = component_spectra(ex_op).eigenspaces()
        assert iter(spaces) is spaces
        assert [s.dim for s in spaces] == [1, 3]


class TestEigenspaceAttribution:
    """spectrum builds the eigenspace of each eigenvalue of T from the side clusters the union merged into it."""

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e-9])
    def test_dimension_at_most_multiplicity(self, scale):
        # At 1e9 the tol of t1 exceeds the gaps of t2's spectrum, so a
        # membership query at t1's tol would pull t1 clusters into t2's values.
        for op in _profile_ops(16, 75, scale):
            report = component_spectra(op)
            union, y1, y2 = report.eigenvalues_of_T, report.upsilon1, report.upsilon2
            k1, total = len(y1.values), 0
            for (lam, m), idx, space in zip(union.values, union.members, report.eigenspaces()):
                m1 = sum(y1.values[i][1] for i in idx if i < k1)
                m2 = sum(y2.values[i - k1][1] for i in idx if i >= k1)
                assert m1 + m2 == m
                assert space.dim <= m and space.minus_basis.shape[1] <= m1 and space.plus_basis.shape[1] <= m2, (op, lam)
                total += space.dim
            assert total <= 2 * op.n

    def test_spectrum_makes_no_membership_query(self, monkeypatch):
        reports = [component_spectra(op) for op in _profile_ops(17, 4) + _profile_ops(17, 4, 1e9)]

        def refuse(self, z):
            raise AssertionError("EigenSet.near called")

        monkeypatch.setattr(EigenSet, "near", refuse)
        for report in reports:
            assert sum(s.dim for s in report.eigenspaces()) >= 2
        with pytest.raises(AssertionError, match="near called"):
            modified_eigenspace(reports[0], Bicomplex.from_complex(reports[0].eigenvalues_of_T.values[0][0]))


class TestExactTransformations:
    """Metamorphic relations that hold exactly on the stored input.

    Scaling is upward only, by 2**k for k in {7, 300, 900}: every tolerance
    has an absolute floor (tol * (1 + ||A||_F) for clusters, tol *
    max(||A||_F, 1) for rank), so scaling a matrix down toward the floor
    changes its verdicts by design.
    """

    @pytest.mark.parametrize("k", [7, 300, 900])
    def test_power_of_two_scaling(self, k):
        for op in _profile_ops(2, 30):
            report = component_spectra(op)
            scaled = component_spectra(BicomplexOperator(_ldexp(op.t1, k), _ldexp(op.t2, k)))
            for es, big in ((report.upsilon1, scaled.upsilon1), (report.upsilon2, scaled.upsilon2)):
                want = [(float.hex(math.ldexp(v.real, k)), float.hex(math.ldexp(v.imag, k)), m) for v, m in es.values]
                assert [(v.real.hex(), v.imag.hex(), m) for v, m in big.values] == want, (op, k)
            assert _shape(scaled) == _shape(report), (op, k)

    def test_idempotent_swap(self):
        for op in _profile_ops(2, 30):
            report = component_spectra(op)
            swapped = component_spectra(BicomplexOperator(op.t2, op.t1))
            assert (swapped.upsilon1, swapped.upsilon2) == (report.upsilon2, report.upsilon1)
            union = report.eigenvalues_of_T
            for (v, _), (w, _) in zip(union.values, swapped.eigenvalues_of_T.values):
                assert abs(v - w) <= union.tol, op
            assert _shape(swapped) == [(m, plus, minus) for m, minus, plus in _shape(report)], op

    def test_permutation_similarity(self):
        rng = np.random.default_rng(16)
        for op in _profile_ops(2, 30):
            p = rng.permutation(op.n)
            permuted = component_spectra(BicomplexOperator(op.t1[p][:, p], op.t2[p][:, p]))
            assert _shape(permuted) == _shape(component_spectra(op)), op


class TestEigenspace:
    """The eigenspace of a complex lam, as `eigenspace --lam` computes it."""

    @staticmethod
    def _space(op, lam):
        report = component_spectra(op)
        assert report.is_eigenvalue(lam)
        return modified_eigenspace(report, Bicomplex.from_complex(lam))

    def test_lambda_one(self, ex_op):
        space = self._space(ex_op, 1.0)
        assert space.dim == 3

    def test_lambda_zero(self, ex_op):
        space = self._space(ex_op, 0.0)
        assert space.dim == 1
        assert in_span(space.minus_basis, [0, 1])

    def test_identity_full_space(self):
        space = self._space(BicomplexOperator.identity(3), 1.0)
        assert space.dim == 6  # 2n over C1

    def test_non_eigenvalue_rejected(self, ex_op):
        report = component_spectra(ex_op)
        assert not report.is_eigenvalue(4.0)
        with pytest.raises(NotModifiedEigenvalueError):
            modified_eigenspace(report, Bicomplex.from_complex(4.0))


class TestEigenspaceSum:
    def test_same_minus_family_overlaps(self, ex_op):
        rep = eigenspace_sum(component_spectra(ex_op), Bicomplex(1.0, 2.0), Bicomplex(1.0, 3.0))
        assert rep.dim_first == 1 and rep.dim_second == 1
        assert rep.intersection_dim == 1
        assert rep.sum_dim == 1
        assert not rep.is_direct

    def test_opposite_sides_are_direct(self, ex_op):
        rep = eigenspace_sum(component_spectra(ex_op), Bicomplex(1.0, 2.0), Bicomplex(7.0, 1.0))
        assert rep.dim_first == 1 and rep.dim_second == 2
        assert rep.intersection_dim == 0
        assert rep.sum_dim == 3
        assert rep.is_direct

    def test_equal_kappas_rejected(self, ex_op):
        with pytest.raises(ValueError):
            eigenspace_sum(component_spectra(ex_op), Bicomplex(1.0, 2.0), Bicomplex(1.0, 2.0))

    def test_non_member_rejected(self, ex_op):
        with pytest.raises(NotModifiedEigenvalueError):
            eigenspace_sum(component_spectra(ex_op), Bicomplex(1.0, 2.0), Bicomplex(8.0, 9.0))

    def test_dimension_formula_holds(self, ex_op):
        rep = eigenspace_sum(component_spectra(ex_op), Bicomplex(1.0, 1.0), Bicomplex(0.0, 5.0))
        assert rep.sum_dim + rep.intersection_dim == rep.dim_first + rep.dim_second

    def test_dimensions_match_the_block_oracle(self):
        # 600 pairs drawn like explore-sum --search draws them, on four profiles:
        # every dimension against the block-embedding nullspaces, the
        # intersection as the nullity of [B1 | -B2] by elimination.
        draw = np.random.default_rng(1515)
        profiles = ("shared-eigenvalue", "defective", "rank-deficient", "generic")
        non_direct = 0
        mismatches = []
        for trial in range(600):
            op = random_operator(Rng(1515, (trial,)), 2 + trial % 7, profiles[trial % 4]).operator
            report = component_spectra(op)
            u1, u2 = report.upsilon1.value_list(), report.upsilon2.value_list()
            far = (2.0 + 1.0j) * (1.0 + max(abs(v) for v in u1 + u2))
            pool = [Bicomplex(v, far) for v in u1] + [Bicomplex(-far, v) for v in u2]
            pool += [Bicomplex(v, w) for v in u1[:2] for w in u2[:2]]
            i, j = draw.choice(len(pool), size=2, replace=False)
            kappa, kappa_prime = pool[i], pool[j]
            rep = eigenspace_sum(report, kappa, kappa_prime)
            b1 = brute_modified_eigenspace(op, kappa)
            b2 = brute_modified_eigenspace(op, kappa_prime)
            inter = elimination_nullspace(np.hstack([b1, -b2]), 1e-8).shape[1]
            oracle = (b1.shape[1], b2.shape[1], b1.shape[1] + b2.shape[1] - inter, inter)
            got = (rep.dim_first, rep.dim_second, rep.sum_dim, rep.intersection_dim)
            if got != oracle:
                mismatches.append((trial, got, oracle))
            assert rep.is_direct == (rep.intersection_dim == 0)
            non_direct += not rep.is_direct
        assert mismatches == []
        assert non_direct >= 100


class TestResidualInvariant:
    def test_every_assembled_vector_is_an_eigenvector(self, ex_op):
        bound = 1e-8 * (1.0 + np.linalg.norm(ex_op.t1) + np.linalg.norm(ex_op.t2))
        for kappa in [Bicomplex(1.0, 2.0), Bicomplex(1.0, 1.0), Bicomplex(0.0, 7.0)]:
            space = modified_eigenspace(component_spectra(ex_op), kappa)
            assert space.max_residual(ex_op) <= bound

    def test_vectors_outside_have_positive_residual(self, ex_op):
        v = BicomplexVector([0, 1], [0, 0])  # e1*(0,1) is a 0-eigenvector, not a 1-eigenvector
        assert residual(ex_op, Bicomplex(1.0, 2.0), v) > 1e-4
