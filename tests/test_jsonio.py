"""JSON encodings: the three scalar forms, emitted vectors, matrices, operators."""

import math
import random

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

    @pytest.mark.parametrize("value", [[math.inf, 0], [0, -math.inf], [math.nan, 0], [1e400, 0], 1e400, math.nan])
    def test_non_finite_part_is_refused_with_its_location(self, value):
        with pytest.raises(ParseError, match=r"^x: complex number must be finite, got "):
            jsonio.parse_complex(value, "x")


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


def _per_entry(a):
    """The nested [re, im] lists of a complex array, one entry at a time: the reference for carray_to_json."""
    if np.ndim(a) == 0:
        return [float(a.real), float(a.imag)]
    return [_per_entry(x) for x in a]


class TestComplexArrays:
    @pytest.mark.parametrize("shape", [(5,), (0,), (3, 4), (0, 3), (3, 0), (2, 3, 2)])
    def test_equals_the_per_entry_conversion(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + sum(shape))
        parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-320, 300, (2, *shape))
        parts.flat[::3] = -0.0
        parts.flat[1::5] = 5e-324
        a = parts[0] + 1j * parts[1]
        for view in (a, a.T, np.asfortranarray(a), a[..., ::-1]):
            assert repr(jsonio.carray_to_json(view)) == repr(_per_entry(view))  # Python floats, -0.0 kept

    def test_real_input_is_read_as_complex(self):
        assert jsonio.carray_to_json(np.array([1, -2])) == [[1.0, 0.0], [-2.0, 0.0]]


class TestMatrixAndOperator:
    def test_operator_roundtrip(self, ex_op):
        obj = {"n": 2, "t1": jsonio.carray_to_json(ex_op.t1), "t2": jsonio.carray_to_json(ex_op.t2)}
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


#: Leaves of the parse fuzz: numbers at the edges of float conversion, and everything else JSON can hold.
LEAVES = [
    lambda r: r.randint(-9, 9),
    lambda r: r.uniform(-1e3, 1e3),
    lambda r: -0.0,
    lambda r: 2**53 + 1,
    lambda r: 2**64 + 1,
    lambda r: 10**400,
    lambda r: float("nan"),
    lambda r: float("inf"),
    lambda r: True,
    lambda r: "1",
    lambda r: None,
    lambda r: [r.random()],
    lambda r: {},
]


def _leaf(r: random.Random, junk: float):
    return r.choice(LEAVES[:2])(r) if r.random() > junk else r.choice(LEAVES)(r)


def _fuzz_matrix(r: random.Random):
    """A nested list that is mostly a rectangular matrix of [re, im] pairs, often subtly not."""
    rows, cols = r.randint(1, 4), r.randint(1, 4)
    junk = r.choice([0.0, 0.0, 0.05, 0.3])
    matrix = [[[_leaf(r, junk), _leaf(r, junk)] for _ in range(cols)] for _ in range(rows)]
    shape = r.choice(["uniform"] * 4 + ["ragged", "bare", "mixed", "triple", "empty-row", "not-a-list"])
    i = r.randrange(rows)
    if shape == "ragged":
        matrix[i] = matrix[i][:-1] or [[1, 0], [2, 0]]
    elif shape == "bare":
        matrix[i] = [_leaf(r, junk) for _ in range(cols)]
    elif shape == "mixed":
        matrix[i][r.randrange(cols)] = _leaf(r, junk)
    elif shape == "triple":
        matrix[i][r.randrange(cols)].append(_leaf(r, junk))
    elif shape == "empty-row":
        matrix[i] = []
    elif shape == "not-a-list":
        matrix[i] = r.choice([{}, "row", 3, None])
    return matrix


def _outcome(obj):
    """parse_operator's arrays as bytes, or the type and message of what it raised."""
    try:
        op = jsonio.parse_operator(obj)
    except Exception as exc:  # every outcome is compared, whatever it is
        return type(exc), str(exc)
    return [(t.dtype, t.shape, t.tobytes()) for t in (op.t1, op.t2)]


class TestUniformFastPath:
    def test_equals_the_per_entry_path(self, monkeypatch):
        r = random.Random(20260418)
        fast = 0
        for _ in range(3000):
            t1 = _fuzz_matrix(r)
            t2 = t1 if r.random() < 0.3 else _fuzz_matrix(r)
            obj = {"t1": t1, "t2": t2}
            fast += jsonio._uniform_cmatrix(t1) is not None
            got = _outcome(obj)
            with monkeypatch.context() as m:
                m.setattr(jsonio, "_uniform_cmatrix", lambda value: None)
                want = _outcome(obj)
            assert got == want, obj
        assert 500 < fast < 2500  # both routes ran

    def test_uniform_operator_reads_no_entry_alone(self, monkeypatch):
        rng = np.random.default_rng(64)
        obj = {side: rng.standard_normal((64, 64, 2)).tolist() for side in ("t1", "t2")}
        calls = []
        per_entry = jsonio._complex
        monkeypatch.setattr(jsonio, "_complex", lambda *a: calls.append(a) or per_entry(*a))
        op = jsonio.parse_operator(obj)
        assert calls == []
        assert np.array_equal(op.t1, np.array(obj["t1"]) @ [1, 1j])
        jsonio.parse_operator({"t1": [[1]], "t2": [[[1, 0]]]})  # a bare number: the per-entry route
        assert len(calls) == 1

    def test_boolean_entry_is_not_a_number(self):
        with pytest.raises(ParseError, match=r"operator\.t1\[0\]\[0\]: expected a number, got True"):
            jsonio.parse_operator({"t1": [[[True, 0]]], "t2": [[[1, 0]]]})


class TestLoads:
    def test_position_in_error(self):
        with pytest.raises(ParseError, match="line 1"):
            jsonio.loads("{bad json}")

    def test_valid(self):
        assert jsonio.loads('{"a": 1}') == {"a": 1}
