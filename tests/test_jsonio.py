"""JSON encodings: the three scalar forms, emitted vectors, matrices, operators."""

import numpy as np
import pytest

from bcspec import Bicomplex, BicomplexVector, ParseError
from bcspec import jsonio


class TestScalar:
    def test_idem_form(self):
        x = jsonio.parse_scalar({"idem": [1, 0, 2, 3]})
        assert x == Bicomplex(1.0, 2 + 3j)

    def test_cart_form(self):
        x = jsonio.parse_scalar({"cart": [0.5, 0, 0, 0.5]})
        assert x == Bicomplex(1.0, 0.0)

    def test_real_form(self):
        x = jsonio.parse_scalar({"real": [0.5, 0, 0, 0.5]})
        assert x == Bicomplex(1.0, 0.0)

    def test_output_emits_idem_and_cart(self):
        out = jsonio.scalar_to_json(Bicomplex(1.0, 0.0))
        assert set(out) == {"idem", "cart"}
        assert out["idem"] == [1.0, 0.0, 0.0, 0.0]
        assert out["cart"] == [0.5, 0.0, 0.0, 0.5]

    def test_all_forms_roundtrip(self):
        x = Bicomplex(1.25 - 2j, 0.5 + 1j)
        emitted = jsonio.scalar_to_json(x)
        assert jsonio.parse_scalar({"idem": emitted["idem"]}) == x
        via_cart = jsonio.parse_scalar({"cart": emitted["cart"]})
        assert abs(via_cart.minus - x.minus) <= 1e-14
        assert abs(via_cart.plus - x.plus) <= 1e-14

    @pytest.mark.parametrize(
        "bad",
        [
            {"idem": [1, 2, 3]},
            {"cart": "nope"},
            {"real": [1, 2, 3, "x"]},
            {"other": [1, 2, 3, 4]},
            [1, 2, 3, 4],
            {"idem": [1, 2, 3, float("nan")]},
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            jsonio.parse_scalar(bad)

    def test_error_carries_field_context(self):
        with pytest.raises(ParseError, match="scalar.idem"):
            jsonio.parse_scalar({"idem": [1, 2]})


class TestComplexPairs:
    def test_pair(self):
        assert jsonio.parse_complex([1, -2], "x") == 1 - 2j

    def test_bare_real(self):
        assert jsonio.parse_complex(3, "x") == 3.0

    def test_bad_pair(self):
        with pytest.raises(ParseError, match="x"):
            jsonio.parse_complex([1], "x")


class TestVector:
    def test_roundtrip(self):
        v = BicomplexVector([1 + 2j, 0], [3, -1j])
        obj = jsonio.vector_to_json(v)
        assert obj == {
            "minus": [[1.0, 2.0], [0.0, 0.0]],
            "plus": [[3.0, 0.0], [0.0, -1.0]],
        }
        back = BicomplexVector(*([complex(*z) for z in obj[side]] for side in ("minus", "plus")))
        assert np.allclose(back.minus, v.minus) and np.allclose(back.plus, v.plus)


class TestMatrixAndOperator:
    def test_operator_roundtrip(self, ex_op):
        obj = {"n": 2, "t1": jsonio.cmatrix_to_json(ex_op.t1), "t2": jsonio.cmatrix_to_json(ex_op.t2)}
        back = jsonio.parse_operator(obj)
        assert np.allclose(back.t1, ex_op.t1) and np.allclose(back.t2, ex_op.t2)

    def test_operator_n_checked(self):
        with pytest.raises(ParseError, match="inconsistent"):
            jsonio.parse_operator({"n": 3, "t1": [[[1, 0]]], "t2": [[[1, 0]]]})

    def test_operator_shape_mismatch(self):
        with pytest.raises(ParseError):
            jsonio.parse_operator({"t1": [[[1, 0]]], "t2": [[[1, 0], [0, 0]]]})

    def test_matrix_component_form(self):
        m = jsonio.parse_matrix({"minus": [[[1, 0]]], "plus": [[[0, 1]]]})
        assert m.minus[0, 0] == 1 and m.plus[0, 0] == 1j

    def test_matrix_entrywise_form(self):
        m = jsonio.parse_matrix([[{"idem": [1, 0, 0, 0]}, {"idem": [0, 0, 1, 0]}]])
        assert m.shape == (1, 2)
        assert m.entry(0, 0) == Bicomplex(1.0, 0.0)
        assert m.entry(0, 1) == Bicomplex(0.0, 1.0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError, match="unequal"):
            jsonio.parse_matrix({"minus": [[[1, 0]], [[1, 0], [0, 0]]], "plus": [[[1, 0]], [[1, 0], [0, 0]]]})


class TestLoads:
    def test_position_in_error(self):
        with pytest.raises(ParseError, match="line 1"):
            jsonio.loads("{bad json}")

    def test_valid(self):
        assert jsonio.loads('{"a": 1}') == {"a": 1}
