"""Scalar algebra: representations, arithmetic, singularity, inverses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcspec import (
    Bicomplex,
    E1,
    E2,
    IdealClass,
    NonFiniteValueError,
    ONE,
    SingularElementError,
    ZERO,
)
from bcspec.core import IDEAL_CLASSES, classify_parts
from bcspec.oracle import cartesian_mul, classify_cartesian

from conftest import cclose, class_edge_pairs, close2ulp

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3)
complexes = st.builds(complex, finite, finite)
bicomplexes = st.builds(Bicomplex, complexes, complexes)


class TestConstruction:
    def test_from_cartesian_e1(self):
        # (1 + i1*i2)/2 has cartesian pair (1/2, i/2) and components (1, 0)
        x = Bicomplex.from_cartesian(0.5, 0.5j)
        assert x.minus == 1.0 and x.plus == 0.0

    def test_from_cartesian_real_unit(self):
        x = Bicomplex.from_cartesian(1.0, 0.0)
        assert x.minus == 1.0 and x.plus == 1.0

    def test_from_cartesian_i2(self):
        # z2 = 1 is the unit i2; components forced to (-i, +i)
        x = Bicomplex.from_cartesian(0.0, 1.0)
        assert x.minus == -1j and x.plus == 1j

    def test_to_cartesian_inverts(self):
        assert Bicomplex(1.0, 0.0).to_cartesian() == (0.5, 0.5j)
        assert Bicomplex(1.0, 1.0).to_cartesian() == (1.0, 0.0)
        z1, z2 = Bicomplex(-1j, 1j).to_cartesian()
        assert z1 == 0.0 and z2 == 1.0

    def test_to_cartesian_near_overflow(self):
        # minus + plus and minus - plus overflow; the halves do not
        big = 1e308 + 1e308j
        assert Bicomplex(big, big).to_cartesian() == (big, 0.0)
        assert Bicomplex(1e308, -1e308).to_cartesian() == (0.0, 1e308j)
        assert Bicomplex(-1e308, 1e308).to_cartesian() == (0.0, -1e308j)

    def test_from_real(self):
        assert Bicomplex.from_real(1, 0, 0, 0) == Bicomplex(1.0, 1.0)
        assert Bicomplex.from_real(0.5, 0, 0, 0.5) == Bicomplex(1.0, 0.0)
        assert Bicomplex.from_real(0, 1, 0, 0) == Bicomplex(1j, 1j)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteValueError):
            Bicomplex(bad, 0.0)
        with pytest.raises(NonFiniteValueError):
            Bicomplex.from_cartesian(complex(0, bad), 0.0)
        with pytest.raises(NonFiniteValueError):
            Bicomplex.from_real(0, 0, bad, 0)


class TestArithmetic:
    def test_idempotent_identities(self):
        assert E1 * E2 == ZERO
        assert E2 * E1 == ZERO
        assert E1 + E2 == ONE
        assert E1 * E1 == E1
        assert E2 * E2 == E2

    def test_product_componentwise(self):
        assert Bicomplex(2, 3) * Bicomplex(5, 7) == Bicomplex(10, 21)

    def test_product_matches_cartesian_route(self):
        x, y = Bicomplex(2, 3), Bicomplex(5, 7)
        via_cart = cartesian_mul(x, y)
        assert cclose(via_cart.minus, 10) and cclose(via_cart.plus, 21)

    def test_scalar_multiples(self):
        x = Bicomplex(2, 3 + 1j)
        assert 0 * x == ZERO
        assert 1 * x == x
        assert 1j * Bicomplex(1, 0) == Bicomplex(1j, 0)
        # a complex scalar acts like its diagonal embedding
        assert 1j * Bicomplex(1, 0) == Bicomplex.from_complex(1j) * Bicomplex(1, 0)

    def test_add_neg_sub(self):
        x, y = Bicomplex(2, 3), Bicomplex(5, 7)
        assert x + y == Bicomplex(7, 10)
        assert -x == Bicomplex(-2, -3)
        assert y - x == Bicomplex(3, 4)


class TestSingularity:
    def test_classify_examples(self):
        assert E1.classify() is IdealClass.IN_I1
        assert E2.classify() is IdealClass.IN_I2
        assert ZERO.classify() is IdealClass.ZERO
        assert ONE.classify() is IdealClass.NONSINGULAR

    def test_classify_cartesian_cross_check(self):
        # z1=1, z2=i gives components (2, 0): in I1, and |z1^2+z2^2| = 0
        x = Bicomplex.from_cartesian(1.0, 1j)
        assert x.minus == 2.0 and x.plus == 0.0
        assert x.classify() is IdealClass.IN_I1
        assert abs(1.0 ** 2 + (1j) ** 2) == 0.0
        assert classify_cartesian(1.0, 1j) is IdealClass.IN_I1

    def test_inverse_of_one(self):
        assert ONE.inverse() == ONE

    def test_inverse_of_e1_fails(self):
        with pytest.raises(SingularElementError):
            E1.inverse()

    @pytest.mark.parametrize("minus", [1e-310, 1e-310j, -2e-319 + 1e-319j])
    def test_inverse_beyond_float_range_names_the_inverse(self, minus):
        # nonsingular at tol 1e-320, yet 1/minus overflows: the inverse, not the input, is refused
        x = Bicomplex(minus, 1.0)
        assert x.classify(1e-320) is IdealClass.NONSINGULAR
        with pytest.raises(NonFiniteValueError, match=r"^inverse of Bicomplex\(.*\) overflows float range$"):
            x.inverse(1e-320)
        assert Bicomplex(2.0**-1000, 1.0).inverse(1e-320).minus == 2.0**1000  # small but invertible

    def test_inverse_roundtrip(self):
        x = Bicomplex.from_cartesian(1.0, 1.0)
        assert x.minus == 1 - 1j and x.plus == 1 + 1j
        inv = x.inverse()
        product = x * inv
        assert abs(product.minus - 1) <= 1e-14
        assert abs(product.plus - 1) <= 1e-14

    def test_threshold_is_relative_with_floor(self):
        # large scalar: a component small relative to the other is singular
        assert Bicomplex(1e8, 1e-4).classify() is IdealClass.IN_I1
        # tiny scalar: floor of 1 makes both components negligible
        assert Bicomplex(1e-12, 1e-12).classify() is IdealClass.ZERO


def _scalar_rule(minus: complex, plus: complex, tol: float) -> tuple[float, IdealClass]:
    """The threshold and ideal class by Python's abs, one scalar at a time: the reference for classify_parts."""
    thr = tol * max(abs(minus), abs(plus), 1.0)
    small = (abs(minus) <= thr, abs(plus) <= thr)
    classes = {
        (True, True): IdealClass.ZERO,
        (False, True): IdealClass.IN_I1,
        (True, False): IdealClass.IN_I2,
        (False, False): IdealClass.NONSINGULAR,
    }
    return thr, classes[small]


class TestClassifyParts:
    @pytest.mark.parametrize("tol", [1e-10, 1e-4, 0.5])
    def test_matches_the_scalar_rule_at_the_edges(self, tol):
        minus, plus = class_edge_pairs(20000, 2204, tol)
        want = [_scalar_rule(complex(m), complex(p), tol) for m, p in zip(minus, plus)]
        got = [IDEAL_CLASSES[c] for c in classify_parts(minus, plus, tol)]
        assert got == [cls for _, cls in want]
        assert len(set(got)) == 4
        for m, p, (thr, cls) in list(zip(minus, plus, want))[:3000]:
            x = Bicomplex(complex(m), complex(p))
            assert x.classify(tol) is cls
            assert x.singular_threshold(tol) == thr  # np.hypot is Python's abs bit for bit

    def test_any_shape(self):
        minus = np.array([[1, 0], [0, 1]], dtype=complex)
        plus = np.array([[0, 1], [0, 1]], dtype=complex)
        assert classify_parts(minus, plus).tolist() == [[2, 1], [3, 0]]
        assert classify_parts(np.zeros(0, complex), np.zeros(0, complex)).shape == (0,)
        assert classify_parts(1.0, 0.0) == 2

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_modulus_beyond_float_range_raises(self, where):
        # every part is finite; |1.5e308 + 1.5e308i| is not, and Python's abs raises for it
        minus = np.array([1, 1, 1], dtype=complex)
        plus = np.array([1, 0, 1], dtype=complex)
        (minus if where != 1 else plus)[where] = complex(1.5e308, 1.5e308)
        with pytest.raises(OverflowError, match="absolute value too large"):
            abs(complex(1.5e308, 1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="absolute value too large"):
                classify_parts(minus, plus)
            with pytest.raises(OverflowError, match="absolute value too large"):
                Bicomplex(minus[where], plus[where]).classify()

    def test_a_threshold_beyond_float_range_makes_every_entry_zero(self):
        # Python's tol * max(...) is inf here too, without an error
        assert 1e300 * max(abs(1e10), 1.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_parts(np.array([1e10, 1.0]), np.array([1.0, 1e308]), 1e300).tolist() == [3, 3]
            assert Bicomplex(1e10, 1.0).classify(1e300) is IdealClass.ZERO


class TestProperties:
    @given(x=bicomplexes, y=bicomplexes)
    def test_mul_commutes(self, x, y):
        d = x * y - y * x
        assert d.minus == 0 and d.plus == 0

    @given(x=bicomplexes, y=bicomplexes, z=bicomplexes)
    def test_mul_associates(self, x, y, z):
        left = (x * y) * z
        right = x * (y * z)
        scale = 1.0 + max(abs(left.minus), abs(left.plus), abs(right.minus), abs(right.plus))
        assert abs(left.minus - right.minus) <= 1e-12 * scale
        assert abs(left.plus - right.plus) <= 1e-12 * scale

    @given(x=bicomplexes, y=bicomplexes, z=bicomplexes)
    def test_mul_distributes(self, x, y, z):
        left = x * (y + z)
        right = x * y + x * z
        scale = 1.0 + max(abs(left.minus), abs(left.plus))
        assert abs(left.minus - right.minus) <= 1e-12 * scale
        assert abs(left.plus - right.plus) <= 1e-12 * scale

    @given(x=bicomplexes, y=bicomplexes)
    def test_mul_agrees_with_cartesian_route(self, x, y):
        direct = x * y
        other = cartesian_mul(x, y)
        scale = 1.0 + max(abs(x.minus), abs(x.plus)) * max(abs(y.minus), abs(y.plus))
        assert abs(direct.minus - other.minus) <= 1e-12 * scale
        assert abs(direct.plus - other.plus) <= 1e-12 * scale

    @given(x=bicomplexes)
    def test_cartesian_roundtrip_2ulp(self, x):
        z1, z2 = x.to_cartesian()
        back = Bicomplex.from_cartesian(z1, z2)
        scale = max(abs(x.minus), abs(x.plus))
        assert close2ulp(back.minus.real, x.minus.real, scale)
        assert close2ulp(back.minus.imag, x.minus.imag, scale)
        assert close2ulp(back.plus.real, x.plus.real, scale)
        assert close2ulp(back.plus.imag, x.plus.imag, scale)

    @given(u1=finite, u2=finite, u3=finite, u4=finite)
    def test_real_roundtrip_2ulp(self, u1, u2, u3, u4):
        x = Bicomplex.from_real(u1, u2, u3, u4)
        back = x.to_real()
        scale = max(map(abs, (u1, u2, u3, u4)))
        for got, want in zip(back, (u1, u2, u3, u4)):
            assert close2ulp(got, want, scale)

    @given(x=bicomplexes)
    def test_inverse_exists_iff_nonsingular(self, x):
        if x.classify() is IdealClass.NONSINGULAR:
            product = x * x.inverse()
            assert abs(product.minus - 1) <= 1e-12
            assert abs(product.plus - 1) <= 1e-12
        else:
            with pytest.raises(SingularElementError):
                x.inverse()

    @given(x=bicomplexes)
    def test_classify_agrees_with_cartesian_route(self, x):
        # routes may legitimately split only inside the decade band around
        # the threshold; random draws land there with probability ~0
        small = min(abs(x.minus), abs(x.plus))
        thr = x.singular_threshold()
        if 0.1 * thr <= small <= 10.0 * thr:
            return
        z1, z2 = x.to_cartesian()
        assert x.classify() == classify_cartesian(z1, z2)

    @given(x=bicomplexes)
    def test_zero_iff_both_components_zero(self, x):
        exact_zero = x.minus == 0 and x.plus == 0
        if exact_zero:
            assert x.classify() is IdealClass.ZERO


def test_singular_iff_product_of_components_vanishes():
    # z1^2 + z2^2 factors as the product of the idempotent components
    x = Bicomplex(3 + 1j, 0.25 - 2j)
    z1, z2 = x.to_cartesian()
    assert cclose(z1 * z1 + z2 * z2, x.minus * x.plus)
