"""Operators T = e1*T1 + e2*T2: application, shifts, kernel/image, singularity."""

import numpy as np
import pytest

from bcspec import (
    Bicomplex,
    IdealClass,
    BicomplexMatrix,
    BicomplexOperator,
    BicomplexVector,
    DimensionMismatchError,
    E1,
    NonFiniteValueError,
    NonSquareError,
    VectorClass,
    apply,
    assemble_pair_basis,
    classify_vector,
    image,
    is_singular_operator,
    kernel,
    shift,
)
from bcspec.oracle import Rng, block_embed, elimination_nullspace, random_operator, random_vector
from bcspec.linalg import frobenius
from conftest import class_edge_pairs, in_span


def _schoolbook_apply(op: BicomplexOperator, v: BicomplexVector) -> BicomplexVector:
    """Entrywise bicomplex matrix-vector product via scalar mul/add; test oracle."""
    rows, cols = op.shape
    mat = BicomplexMatrix(op.t1, op.t2)
    out = []
    for i in range(rows):
        acc = Bicomplex(0.0, 0.0)
        for j in range(cols):
            acc = acc + mat.entry(i, j) * v.entry(j)
        out.append(acc)
    return BicomplexVector([x.minus for x in out], [x.plus for x in out])


class TestApply:
    def test_worked_example_eigenvector(self, ex_op):
        # the vector (1, e2): minus components (1, 0), plus components (1, 1)
        v = BicomplexVector([1, 0], [1, 1])
        w = apply(ex_op, v)
        assert np.allclose(w.minus, v.minus) and np.allclose(w.plus, v.plus)

    def test_identity(self):
        v = BicomplexVector([1, 2j, -1], [0.5, 0, 3])
        w = apply(BicomplexOperator.identity(3), v)
        assert np.allclose(w.minus, v.minus) and np.allclose(w.plus, v.plus)

    def test_matches_schoolbook_product(self):
        for trial in range(10):
            op = random_operator(Rng(50, (trial,)), 3).operator
            v = random_vector(Rng(51, (trial,)), 3)
            fast = apply(op, v)
            slow = _schoolbook_apply(op, v)
            assert np.allclose(fast.minus, slow.minus, atol=1e-12)
            assert np.allclose(fast.plus, slow.plus, atol=1e-12)

    def test_dimension_mismatch(self, ex_op):
        with pytest.raises(DimensionMismatchError):
            apply(ex_op, BicomplexVector([1, 2, 3], [0, 0, 0]))


class TestOperatorArithmetic:
    """T is bicomplex-linear: T(v + w) = Tv + Tw and T(eta v) = eta Tv."""

    def test_scale_by_e1_zeroes_plus_component(self, ex_op):
        v = BicomplexVector([1, 2j], [3, 4])
        out = apply(ex_op, v.scale(E1))
        assert np.allclose(out.minus, ex_op.t1 @ v.minus)
        assert np.allclose(out.plus, 0)

    def test_add_neg_is_zero(self, ex_op):
        v = BicomplexVector([1, 2j], [3, 4])
        z = apply(ex_op, v) + apply(ex_op, -v)
        assert z.is_exact_zero()

    def test_complex_scale_acts_diagonally(self, ex_op):
        v = BicomplexVector([1, 2j], [3, 4])
        s = apply(ex_op, v.scale(2j))
        assert np.allclose(s.minus, 2j * (ex_op.t1 @ v.minus)) and np.allclose(s.plus, 2j * (ex_op.t2 @ v.plus))

    def test_scale_then_apply_commutes(self):
        eta = Bicomplex(2 - 1j, 0.5)
        for trial in range(20):
            op = random_operator(Rng(60, (trial,)), 3).operator
            v = random_vector(Rng(61, (trial,)), 3)
            left = apply(op, v.scale(eta))
            right = apply(op, v).scale(eta)
            assert np.allclose(left.minus, right.minus, atol=1e-12)
            assert np.allclose(left.plus, right.plus, atol=1e-12)


class TestShift:
    def test_zero_shift(self, ex_op):
        s = shift(ex_op, Bicomplex(0.0, 0.0))
        assert np.allclose(s.t1, ex_op.t1) and np.allclose(s.t2, ex_op.t2)

    def test_worked_example_shift(self, ex_op):
        s = shift(ex_op, Bicomplex(1.0, 2.0))
        assert np.allclose(s.t1, np.array([[0, 0], [0, -1]]))
        assert np.allclose(s.t2, -np.eye(2))

    def test_complex_shift_embeds_diagonally(self, ex_op):
        s = shift(ex_op, 0.5)
        assert np.allclose(s.t1, ex_op.t1 - 0.5 * np.eye(2))
        assert np.allclose(s.t2, ex_op.t2 - 0.5 * np.eye(2))

    def test_rectangular_rejected(self):
        op = BicomplexOperator.zero(2, 3)
        with pytest.raises(NonSquareError):
            shift(op, 1.0)


class TestKernelImage:
    def test_worked_example_kernel(self, ex_op):
        k1, k2 = kernel(ex_op)
        assert k1.shape[1] == 1 and in_span(k1, [0, 1])
        assert k2.shape[1] == 0
        vectors = assemble_pair_basis((k1, k2))
        assert len(vectors) == 1
        assert apply(ex_op, vectors[0]).norm() <= 1e-12

    def test_identity_kernel(self):
        k1, k2 = kernel(BicomplexOperator.identity(3))
        assert k1.shape[1] == 0 and k2.shape[1] == 0

    def test_kernel_dim_matches_block_oracle(self):
        for trial in range(20):
            planted = random_operator(Rng(70, (trial,)), 4, "rank-deficient")
            op = planted.operator
            k1, k2 = kernel(op)
            block = block_embed(op)
            brute = elimination_nullspace(block, 1e-10 * (1 + frobenius(block)) * 8)
            assert k1.shape[1] + k2.shape[1] == brute.shape[1]
            assert k1.shape[1] + k2.shape[1] > 0

    def test_worked_example_image(self, ex_op):
        i1, i2 = image(ex_op)
        assert i1.shape[1] == 1 and in_span(i1, [1, 0])
        assert i2.shape[1] == 2

    def test_zero_operator_image(self):
        i1, i2 = image(BicomplexOperator.zero(2))
        assert i1.shape[1] == 0 and i2.shape[1] == 0

    def test_rank_nullity_per_component(self):
        for trial in range(30):
            n = 1 + trial % 5
            op = random_operator(Rng(80, (trial,)), n, "rank-deficient").operator
            k1, k2 = kernel(op)
            i1, i2 = image(op)
            assert i1.shape[1] + k1.shape[1] == n
            assert i2.shape[1] + k2.shape[1] == n

    def test_rectangular_kernel_image(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 2)) + 0j
        b = rng.standard_normal((4, 2)) + 0j
        op = BicomplexOperator(a, b)
        k1, k2 = kernel(op)
        i1, i2 = image(op)
        assert i1.shape[1] + k1.shape[1] == 2
        assert i2.shape[1] + k2.shape[1] == 2


class TestSingularity:
    def test_worked_example_singular(self, ex_op):
        assert is_singular_operator(ex_op)

    def test_identity_nonsingular(self):
        assert not is_singular_operator(BicomplexOperator.identity(4))

    def test_rank_deficiency_flips_verdict(self):
        rng = np.random.default_rng(13)
        t1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert not is_singular_operator(BicomplexOperator(t1, t2))
        deficient = t2.copy()
        deficient[:, 2] = deficient[:, 0] + deficient[:, 1]
        assert is_singular_operator(BicomplexOperator(t1, deficient))

    def test_agrees_with_kernel(self):
        for trial in range(40):
            profile = "rank-deficient" if trial % 2 else "generic"
            op = random_operator(Rng(90, (trial,)), 3, profile).operator
            k1, k2 = kernel(op)
            assert is_singular_operator(op) == (k1.shape[1] + k2.shape[1] > 0)

    def test_rectangular_rejected(self):
        with pytest.raises(NonSquareError):
            is_singular_operator(BicomplexOperator.zero(2, 3))


class TestVectorClassification:
    def test_entrywise_singular_vector(self):
        # (e1, e2, 0): nonzero, every entry a zero divisor
        v = BicomplexVector([1, 0, 0], [0, 1, 0])
        assert classify_vector(v) is VectorClass.SINGULAR_NONZERO

    def test_nonsingular_vector(self):
        v = BicomplexVector([1, 0], [1, 0])
        assert classify_vector(v) is VectorClass.NONSINGULAR

    def test_nonzero_components_can_still_be_singular(self):
        # both component vectors are nonzero, yet no entry is invertible
        v = BicomplexVector([1, 0], [0, 1])
        assert np.any(v.minus) and np.any(v.plus)
        assert classify_vector(v) is VectorClass.SINGULAR_NONZERO

    def test_zero_vector(self):
        assert classify_vector(BicomplexVector.zero(3)) is VectorClass.ZERO

    def test_zero_iff_both_components_zero(self):
        for trial in range(20):
            v = random_vector(Rng(95, (trial,)), 3)
            assert classify_vector(v) is not VectorClass.ZERO
        assert BicomplexVector.zero(2).is_exact_zero()


    def test_matches_the_entrywise_route(self):
        # the reference classifies each entry as a Bicomplex, one at a time
        minus, plus = class_edge_pairs(6000, 96)
        vectors = [BicomplexVector(minus[k:k + 6], plus[k:k + 6]) for k in range(0, 6000, 6)]
        # zero vectors at the threshold tie: 1e-10 is tol * max(1e-10, 1)
        vectors += [BicomplexVector([-0.0, 5e-324j, 1e-10], [1e-10j, -0.0, 0]), BicomplexVector.zero(0)]
        seen = set()
        for v in vectors:
            classes = {v.entry(i).classify() for i in range(v.n)}
            if classes <= {IdealClass.ZERO}:
                want = VectorClass.ZERO
            elif IdealClass.NONSINGULAR in classes:
                want = VectorClass.NONSINGULAR
            else:
                want = VectorClass.SINGULAR_NONZERO
            assert classify_vector(v) is want
            seen.add(want)
        assert seen == set(VectorClass)

    def test_an_entry_beyond_float_range_raises(self):
        # every entry is classified, the one after a non-singular entry too
        v = BicomplexVector([1, 1.5e308 + 1.5e308j], [1, 0])
        with pytest.raises(OverflowError, match="absolute value too large"):
            classify_vector(v)


class TestTypes:
    def test_vector_component_length_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"component shapes differ: \(2,\) vs \(1,\)"):
            BicomplexVector([1, 2], [1])

    def test_matrix_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"component shapes differ: \(2, 2\) vs \(2, 3\)"):
            BicomplexMatrix(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_operator_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"component shapes differ: \(2, 2\) vs \(2, 3\)"):
            BicomplexOperator(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("cls, shape", [(BicomplexVector, (2, 2)), (BicomplexMatrix, (2,)), (BicomplexOperator, (2,))])
    def test_component_ndim_is_checked(self, cls, shape):
        with pytest.raises(ValueError, match="-d array"):
            cls(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("cls, shape", [(BicomplexVector, (2,)), (BicomplexMatrix, (2, 2)), (BicomplexOperator, (2, 2))])
    def test_components_are_finite_complex_arrays(self, cls, shape):
        pair = cls(np.ones(shape, dtype=int), np.zeros(shape))
        assert all(a.dtype == np.complex128 and a.shape == shape for a in vars(pair).values())
        with pytest.raises(NonFiniteValueError):
            cls(np.ones(shape), np.full(shape, np.nan))

    def test_matrix_operator_roundtrip(self, ex_op):
        mat = BicomplexMatrix(ex_op.t1, ex_op.t2)
        back = BicomplexOperator(mat.minus, mat.plus)
        assert np.allclose(back.t1, ex_op.t1) and np.allclose(back.t2, ex_op.t2)
        assert mat.entry(0, 0) == Bicomplex(1.0, 1.0)
        assert mat.entry(1, 1) == Bicomplex(0.0, 1.0)

    def test_vector_entries_roundtrip(self):
        entries = [Bicomplex(1, 2), Bicomplex(0, 1j)]
        v = BicomplexVector([e.minus for e in entries], [e.plus for e in entries])
        assert [v.entry(i) for i in range(v.n)] == entries
