import numpy as np
import pytest

import bcspec.verify
from bcspec import BicomplexOperator, kernel


@pytest.fixture
def ex_op() -> BicomplexOperator:
    """The running worked example: t1 projects onto the first coordinate, t2 = I."""
    return BicomplexOperator(
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.eye(2, dtype=complex),
    )


@pytest.fixture
def swapped_kernel(monkeypatch):
    """Verify runs against a faulty kernel: the component nullspaces on the wrong sides."""

    def faulty(op, tol):
        k1, k2 = kernel(op, tol)
        return k2, k1

    monkeypatch.setattr(bcspec.verify, "kernel", faulty)


def close2ulp(a: float, b: float, scale: float | None = None) -> bool:
    """|a - b| within 2 units in the last place, measured at the given scale.

    Conversions between representations mix the component magnitudes, so the
    achievable bound is ulps at the scalar's overall scale, not per-field.
    """
    diff = abs(a - b)
    if diff == 0.0:
        return True
    if scale is None:
        scale = max(abs(a), abs(b))
    return diff <= 2.0 * np.spacing(max(scale, abs(a), abs(b)))


def cclose(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))
