import numpy as np
import pytest

import bcspec.verify
from bcspec import BicomplexOperator, ModifiedCase, component_spectra, kernel
from bcspec.linalg import frobenius


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


def side_eigenspaces(a):
    """Clustered spectrum of a and the eigenspace of each cluster, as `spectrum` computes them.

    a becomes t1 of an operator whose t2 = c*I puts its one eigenvalue c far
    from the spectrum of a, so every eigenvalue of T in Y1 is one-sided
    (OnlyMinus) and the minus basis report.eigenspaces() yields for it is the
    eigenspace of a.  Returns (Y1, spaces), the spaces aligned with Y1.values.
    """
    a = np.asarray(a, dtype=complex)
    far = 3.0 * (1.0 + frobenius(a))
    report = component_spectra(BicomplexOperator(a, far * np.eye(a.shape[0])))
    es = report.upsilon1
    spaces = [s for s in report.eigenspaces() if s.case is ModifiedCase.ONLY_MINUS]
    assert len(spaces) == len(es.values)
    assert all(abs(s.kappa.minus - v) <= es.tol for s, (v, _) in zip(spaces, es.values))
    return es, [s.minus_basis for s in spaces]


def in_span(basis, v, rel_tol: float = 1e-8) -> bool:
    """v lies in the span of the orthonormal columns of basis: ||v - basis basis^H v|| <= rel_tol * ||v||."""
    v = np.asarray(v, dtype=complex)
    return np.linalg.norm(v - basis @ (basis.conj().T @ v)) <= rel_tol * np.linalg.norm(v)


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
