"""The brute-force reference paths themselves: embeddings, elimination, planting."""

import ast
from pathlib import Path

import numpy as np
import pytest

import bcspec.oracle
from bcspec import Bicomplex, BicomplexOperator, BicomplexVector, ZeroVectorError
from bcspec.linalg import eigenvalues, frobenius, nullspace
from bcspec.operators import is_singular_operator
from bcspec.oracle import (
    PROFILES,
    Rng,
    block_embed,
    brute_modified_eigenspace,
    cartesian_mul,
    classify_cartesian,
    elimination_nullspace,
    random_operator,
    random_scalar,
    random_vector,
    residual,
)
from bcspec.spectra import component_spectra
from conftest import side_eigenspaces


def test_oracle_shares_no_code_with_the_primary_paths():
    # from the primary modules the oracle takes the operator and vector types only, never a computation
    tree = ast.parse(Path(bcspec.oracle.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    primary = {(m, name) for m, name in imported if "linalg" in (m, name) or "operators" in (m, name)}
    assert primary == {("operators", "BicomplexOperator"), ("operators", "BicomplexVector")}


class TestRng:
    def test_same_key_same_stream(self):
        a = Rng(123, (4, 5)).generator().standard_normal(8)
        b = Rng(123, (4, 5)).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        a = Rng(123, (4, 5)).generator().standard_normal(8)
        b = Rng(123, (4, 6)).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_extends_stream(self):
        assert Rng(1).child(2, 3) == Rng(1, (2, 3))


class TestBlockEmbed:
    def test_worked_example(self, ex_op):
        block = block_embed(ex_op)
        want = np.zeros((4, 4))
        want[0, 0] = 1
        want[2:, 2:] = np.eye(2)
        assert np.allclose(block, want)

    def test_identity(self):
        assert np.allclose(block_embed(BicomplexOperator.identity(2)), np.eye(4))

    def test_embedding_intertwines_application(self):
        from bcspec.operators import apply

        op = random_operator(Rng(5, (0,)), 3).operator
        v = random_vector(Rng(5, (1,)), 3)
        direct = apply(op, v)
        x = block_embed(op) @ np.concatenate([v.minus, v.plus])
        via_block = BicomplexVector(x[:3], x[3:])
        assert np.allclose(direct.minus, via_block.minus)
        assert np.allclose(direct.plus, via_block.plus)

    def test_block_spectrum_is_multiset_union(self):
        for trial in range(20):
            op = random_operator(Rng(6, (trial,)), 4).operator
            rep = component_spectra(op)
            block_eigs = sorted(
                np.linalg.eigvals(block_embed(op)), key=lambda z: (z.real, z.imag)
            )
            expected = sorted(
                rep.upsilon1.multiset() + rep.upsilon2.multiset(),
                key=lambda z: (z.real, z.imag),
            )
            tol = 1e-8 * (1 + frobenius(block_embed(op)))
            assert all(abs(a - b) <= tol for a, b in zip(block_eigs, expected))


class TestResidual:
    def test_worked_example_eigenpair(self, ex_op):
        assert residual(ex_op, 1.0, BicomplexVector([1, 0], [1, 1])) <= 1e-14

    def test_worked_example_modified_pair(self, ex_op):
        v = BicomplexVector([1, 0], [0, 0])
        assert residual(ex_op, Bicomplex(1.0, 2.0), v) <= 1e-14

    def test_generic_pair_positive(self, ex_op):
        v = random_vector(Rng(8, (0,)), 2)
        assert residual(ex_op, Bicomplex(0.5, 0.25), v) > 1e-3

    def test_zero_vector_rejected(self, ex_op):
        with pytest.raises(ZeroVectorError):
            residual(ex_op, 1.0, BicomplexVector.zero(2))


class TestEliminationNullspace:
    def test_agrees_with_qr_route_on_planted_ranks(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            if r == 0:
                a = np.zeros((n, n), dtype=complex)
            else:
                a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
                    rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
                )
            threshold = 1e-10 * max(frobenius(a), 1.0) * n
            brute = elimination_nullspace(a, threshold)
            assert brute.shape[1] == nullspace(a).shape[1]
            for k in range(brute.shape[1]):
                v = brute[:, k]
                assert np.linalg.norm(a @ v) <= 1e-7 * max(frobenius(a), 1.0) * np.linalg.norm(v)

    def test_rectangular(self):
        a = np.array([[1.0, 2.0, 3.0]])
        basis = elimination_nullspace(a, 1e-10)
        assert basis.shape == (3, 2)
        assert np.allclose(a @ basis, 0)


class TestBruteModifiedEigenspace:
    def test_worked_example_dims(self, ex_op):
        assert brute_modified_eigenspace(ex_op, Bicomplex(1.0, 2.0)).shape[1] == 1
        assert brute_modified_eigenspace(ex_op, Bicomplex(1.0, 1.0)).shape[1] == 3
        assert brute_modified_eigenspace(ex_op, Bicomplex(7.0, 9.0)).shape[1] == 0

    def test_basis_orthonormal(self, ex_op):
        space = brute_modified_eigenspace(ex_op, Bicomplex(1.0, 1.0))
        assert np.linalg.norm(space.conj().T @ space - np.eye(space.shape[1])) <= 1e-10


class TestPlantedOperators:
    def test_shared_eigenvalue_profile(self):
        for trial in range(10):
            planted = random_operator(Rng(11, (trial,)), 4, "shared-eigenvalue")
            lam = planted.shared_eigenvalue
            rep = component_spectra(planted.operator)
            assert rep.upsilon1.contains(lam) and rep.upsilon2.contains(lam)
            assert rep.is_eigenvalue(lam)

    def test_rank_deficient_profile(self):
        for trial in range(10):
            planted = random_operator(Rng(12, (trial,)), 4, "rank-deficient")
            assert is_singular_operator(planted.operator)

    def test_defective_profile(self):
        for trial in range(10):
            planted = random_operator(Rng(13, (trial,)), 4, "defective")
            t = planted.operator.t1 if planted.defective_side == 1 else planted.operator.t2
            es, spaces = side_eigenspaces(t)
            lam = planted.defective_eigenvalue
            idx = min(range(len(es.values)), key=lambda i: abs(es.values[i][0] - lam))
            algebraic = es.values[idx][1]
            geometric = spaces[idx].shape[1]
            assert algebraic == 2
            assert geometric == 1

    def test_degenerate_n1(self):
        for profile in PROFILES:
            planted = random_operator(Rng(14, (hash(profile) % 100,)), 1, profile)
            assert planted.operator.shape == (1, 1)
            assert sum(m for _, m in eigenvalues(planted.operator.t1).values) == 1

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            random_operator(Rng(1), 2, "nope")


class TestScalarOracles:
    def test_cartesian_mul_matches_componentwise(self):
        x, y = Bicomplex(2, 3), Bicomplex(5, 7)
        z = cartesian_mul(x, y)
        assert abs(z.minus - 10) <= 1e-12 and abs(z.plus - 21) <= 1e-12

    def test_classify_cartesian_on_units(self):
        from bcspec import IdealClass

        assert classify_cartesian(0.5, 0.5j) is IdealClass.IN_I1   # e1
        assert classify_cartesian(0.5, -0.5j) is IdealClass.IN_I2  # e2
        assert classify_cartesian(0.0, 0.0) is IdealClass.ZERO
        assert classify_cartesian(1.0, 0.0) is IdealClass.NONSINGULAR

    def test_random_scalar_deterministic(self):
        assert random_scalar(Rng(9, (1,))) == random_scalar(Rng(9, (1,)))
