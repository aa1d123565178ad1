"""JSON encodings for scalars, vectors, matrices and operators.

Scalars accept three encodings and always emit "idem" plus "cart":

    {"idem": [re_minus, im_minus, re_plus, im_plus]}
    {"cart": [re1, im1, re2, im2]}        # x = z1 + i2*z2
    {"real": [u1, u2, u3, u4]}            # u1 + i1*u2 + i2*u3 + i1*i2*u4

Complex numbers are always [re, im] pairs.  Operators are read as
{"n": int, "t1": [[[re, im], ...], ...], "t2": ...}; matrices are read in
either the component form {"minus": ..., "plus": ...} or as entrywise scalar
objects; vectors are only written, in component form.  Uniform [re, im] number
pairs are read in one numpy conversion, anything else entry by entry; complex
arrays of any shape are written in one.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .core import Bicomplex
from .errors import NonFiniteValueError, ParseError
from .operators import BicomplexMatrix, BicomplexOperator, BicomplexVector


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _complex(value, where: str) -> complex:
    """[re, im] pair, or a bare number as a real; finiteness is the caller's check (a matrix's constructor, as on the uniform route)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], where), _number(value[1], where))
    raise ParseError(f"{where}: expected [re, im], got {value!r}")


def parse_complex(value, where: str) -> complex:
    """A complex scalar argument: [re, im] of finite numbers, or a bare finite real."""
    z = _complex(value, where)
    if not np.isfinite(z):
        raise ParseError(f"{where}: complex number must be finite, got {z!r}")
    return z


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _quad(value, where: str) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ParseError(f"{where}: expected a list of 4 numbers, got {value!r}")
    a, b, c, d = (_number(x, where) for x in value)
    return a, b, c, d


def parse_scalar(obj, where: str = "scalar") -> Bicomplex:
    """Accept any of the three scalar encodings."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object with 'idem', 'cart' or 'real'")
    try:
        if "idem" in obj:
            a, b, c, d = _quad(obj["idem"], f"{where}.idem")
            return Bicomplex(complex(a, b), complex(c, d))
        if "cart" in obj:
            a, b, c, d = _quad(obj["cart"], f"{where}.cart")
            return Bicomplex.from_cartesian(complex(a, b), complex(c, d))
        if "real" in obj:
            u1, u2, u3, u4 = _quad(obj["real"], f"{where}.real")
            return Bicomplex.from_real(u1, u2, u3, u4)
    except NonFiniteValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: none of 'idem', 'cart', 'real' present")


def scalar_to_json(x: Bicomplex) -> dict:
    z1, z2 = x.to_cartesian()
    return {
        "idem": [x.minus.real, x.minus.imag, x.plus.real, x.plus.imag],
        "cart": [z1.real, z1.imag, z2.real, z2.imag],
    }


def _parse_cvector(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of complex entries")
    return np.array([_complex(v, f"{where}[{i}]") for i, v in enumerate(value)], dtype=np.complex128)


def _uniform_cmatrix(value) -> np.ndarray | None:
    """A list of equal-length rows of [re, im] int/float pairs as one complex array; else None."""
    if not isinstance(value, list) or {type(row) for row in value} != {list}:
        return None
    entries = list(chain.from_iterable(value))
    if set(map(type, entries)) != {list} or not set(map(type, chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        parts = np.array(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows or pairs; an int beyond float range
        return None
    if parts.ndim != 3 or parts.shape[2] != 2:
        return None
    return parts.view(np.complex128)[:, :, 0]


def _parse_cmatrix(value, where: str) -> np.ndarray:
    uniform = _uniform_cmatrix(value)
    if uniform is not None:
        return uniform
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    rows = [_parse_cvector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise ParseError(f"{where}: rows have unequal lengths")
    return np.vstack(rows)


def carray_to_json(a: np.ndarray) -> list:
    """A complex array of any shape as nested lists of [re, im] pairs, in one conversion."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def vector_to_json(v: BicomplexVector) -> dict:
    return {"minus": carray_to_json(v.minus), "plus": carray_to_json(v.plus)}


def parse_matrix(obj, where: str = "matrix") -> BicomplexMatrix:
    """Component form {"minus": [[...]], "plus": [[...]]} or entrywise scalar objects."""
    if isinstance(obj, dict) and "minus" in obj and "plus" in obj:
        minus = _parse_cmatrix(obj["minus"], f"{where}.minus")
        plus = _parse_cmatrix(obj["plus"], f"{where}.plus")
        if minus.shape != plus.shape:
            raise ParseError(f"{where}: component shapes differ")
        return BicomplexMatrix(minus, plus)
    if isinstance(obj, list):
        if not obj or not all(isinstance(row, list) for row in obj):
            raise ParseError(f"{where}: expected a list of rows")
        width = len(obj[0])
        if any(len(row) != width for row in obj):
            raise ParseError(f"{where}: rows have unequal lengths")
        cells = [[parse_scalar(cell, f"{where}[{i}][{j}]") for j, cell in enumerate(row)] for i, row in enumerate(obj)]
        return BicomplexMatrix([[x.minus for x in row] for row in cells], [[x.plus for x in row] for row in cells])
    raise ParseError(f"{where}: expected component form or entrywise scalars")


def parse_operator(obj, where: str = "operator") -> BicomplexOperator:
    """{"n": int, "t1": [[...]], "t2": [[...]]}; n is optional and checked when present."""
    if not isinstance(obj, dict) or "t1" not in obj or "t2" not in obj:
        raise ParseError(f"{where}: expected an object with 't1' and 't2'")
    t1 = _parse_cmatrix(obj["t1"], f"{where}.t1")
    t2 = _parse_cmatrix(obj["t2"], f"{where}.t2")
    if t1.shape != t2.shape:
        raise ParseError(f"{where}: t1 shape {t1.shape} differs from t2 shape {t2.shape}")
    if "n" in obj:
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"{where}.n: expected an integer")
        if t1.shape != (n, n):
            raise ParseError(f"{where}: n={n} inconsistent with t1 shape {t1.shape}")
    return BicomplexOperator(t1, t2)

