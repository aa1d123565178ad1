"""Bicomplex scalars in idempotent representation.

A bicomplex number is u1 + i1*u2 + i2*u3 + i1*i2*u4 with two commuting
imaginary units (i1**2 = i2**2 = -1), or equivalently z1 + i2*z2 with
z1, z2 complex.  The nontrivial idempotents

    e1 = (1 + i1*i2) / 2,    e2 = (1 - i1*i2) / 2

satisfy e1 + e2 = 1 and e1*e2 = 0, and every element splits uniquely as

    x = minus * e1 + plus * e2,    minus = z1 - i*z2,  plus = z1 + i*z2.

Multiplication is componentwise in this basis, which is why the pair
(minus, plus) is the canonical stored form; the cartesian pair and the
real 4-tuple are conversion views.  The ring has zero divisors: exactly
the elements with a vanishing idempotent component (the principal ideals
I1 = C1*e1 and I2 = C1*e2), equivalently those with |z1**2 + z2**2| = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteValueError, SingularElementError

#: Default relative tolerance for singularity decisions.
DEFAULT_TOL = 1e-10


class IdealClass(Enum):
    """Position of a scalar relative to the singular set I1 ∪ I2."""

    ZERO = "Zero"
    IN_I1 = "InI1"          # plus component vanishes: a multiple of e1
    IN_I2 = "InI2"          # minus component vanishes: a multiple of e2
    NONSINGULAR = "NonSingular"


#: The IdealClass of each code classify_parts returns: (minus small) + 2 * (plus small).
IDEAL_CLASSES = (IdealClass.NONSINGULAR, IdealClass.IN_I2, IdealClass.IN_I1, IdealClass.ZERO)


def _moduli(minus, plus, tol: float):
    """Entrywise |z⁻|, |z⁺| and the threshold tol·max(|z⁻|, |z⁺|, 1) of two complex arrays.

    np.hypot of the parts is Python's abs bit for bit, and a modulus beyond
    float range raises OverflowError as abs does.
    """
    minus, plus = np.asarray(minus), np.asarray(plus)
    with np.errstate(over="ignore"):
        am, ap = np.hypot(minus.real, minus.imag), np.hypot(plus.real, plus.imag)
        largest = np.maximum(am, ap)
        thr = tol * np.maximum(largest, 1.0)
    if np.isinf(largest).any():
        raise OverflowError("absolute value too large")
    return am, ap, thr


def classify_parts(minus, plus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The code in IDEAL_CLASSES of each entry pair of two complex arrays; a component at or below the threshold is zero."""
    am, ap, thr = _moduli(minus, plus, tol)
    return (am <= thr) + 2 * (ap <= thr)


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _finite_complex(value, what: str) -> complex:
    z = complex(value)
    if not _is_finite(z):
        raise NonFiniteValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class Bicomplex:
    """A bicomplex scalar stored as its idempotent component pair."""

    minus: complex
    plus: complex

    def __post_init__(self):
        object.__setattr__(self, "minus", _finite_complex(self.minus, "minus component"))
        object.__setattr__(self, "plus", _finite_complex(self.plus, "plus component"))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_cartesian(cls, z1, z2) -> "Bicomplex":
        """Build from the cartesian pair of x = z1 + i2*z2."""
        z1 = _finite_complex(z1, "z1")
        z2 = _finite_complex(z2, "z2")
        minus, plus = z1 - 1j * z2, z1 + 1j * z2
        if not (_is_finite(minus) and _is_finite(plus)):
            raise NonFiniteValueError("conversion to idempotent components overflows float range")
        return cls(minus, plus)

    @classmethod
    def from_real(cls, u1: float, u2: float, u3: float, u4: float) -> "Bicomplex":
        """Build from the real coefficients of u1 + i1*u2 + i2*u3 + i1*i2*u4."""
        return cls.from_cartesian(complex(u1, u2), complex(u3, u4))

    @classmethod
    def from_complex(cls, a) -> "Bicomplex":
        """Embed a complex number diagonally (a = a*e1 + a*e2)."""
        a = _finite_complex(a, "complex scalar")
        return cls(a, a)

    # -- conversion views ---------------------------------------------

    def to_cartesian(self) -> tuple[complex, complex]:
        """Return (z1, z2) with x = z1 + i2*z2."""
        total = self.minus + self.plus
        diff = self.minus - self.plus
        # Near the top of the float range the sum or difference overflows, and
        # complex division turns the infinity into NaN; halve first only there,
        # since halving first flips the sign of some zeros.
        z1 = total / 2 if _is_finite(total) else self.minus / 2 + self.plus / 2
        z2 = 1j * diff / 2 if _is_finite(diff) else 1j * (self.minus / 2 - self.plus / 2)
        return z1, z2

    def to_real(self) -> tuple[float, float, float, float]:
        """Return (u1, u2, u3, u4)."""
        z1, z2 = self.to_cartesian()
        return z1.real, z1.imag, z2.real, z2.imag

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex(self.minus + other.minus, self.plus + other.plus)
        if isinstance(other, numbers.Complex):
            return Bicomplex(self.minus + other, self.plus + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Bicomplex(-self.minus, -self.plus)

    def __sub__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex(self.minus - other.minus, self.plus - other.plus)
        if isinstance(other, numbers.Complex):
            return Bicomplex(self.minus - other, self.plus - other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # Componentwise: (x*y)^- = x^- y^-, (x*y)^+ = x^+ y^+.  A complex
        # scalar embeds diagonally, so scaling is the same rule.
        if isinstance(other, Bicomplex):
            return Bicomplex(self.minus * other.minus, self.plus * other.plus)
        if isinstance(other, numbers.Complex):
            return Bicomplex(self.minus * other, self.plus * other)
        return NotImplemented

    __rmul__ = __mul__

    # -- predicates and inverse ----------------------------------------

    def singular_threshold(self, tol: float = DEFAULT_TOL) -> float:
        """Absolute magnitude below which a component counts as zero."""
        return float(_moduli(self.minus, self.plus, tol)[2])

    def classify(self, tol: float = DEFAULT_TOL) -> IdealClass:
        """Classify against the singular set; ties at the threshold are singular."""
        return IDEAL_CLASSES[classify_parts(self.minus, self.plus, tol)]

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.classify(tol) is IdealClass.ZERO

    def inverse(self, tol: float = DEFAULT_TOL) -> "Bicomplex":
        """Multiplicative inverse; exists exactly off I1 ∪ I2."""
        cls = self.classify(tol)
        if cls is not IdealClass.NONSINGULAR:
            raise SingularElementError(f"no inverse: {self!r} classifies as {cls.value}")
        minus, plus = 1.0 / self.minus, 1.0 / self.plus
        if not (_is_finite(minus) and _is_finite(plus)):  # 1/z overflows when 0 < |z| < ~5.6e-309
            raise NonFiniteValueError(f"inverse of {self!r} overflows float range")
        return Bicomplex(minus, plus)

    def __str__(self):
        return f"{self.minus}*e1 + {self.plus}*e2"


ZERO = Bicomplex(0.0, 0.0)
ONE = Bicomplex(1.0, 1.0)
E1 = Bicomplex(1.0, 0.0)
E2 = Bicomplex(0.0, 1.0)
