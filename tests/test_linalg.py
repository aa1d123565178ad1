"""Complex linear algebra: rank decisions, nullspaces, eigensolver, subspace arithmetic."""

import cmath
import math
import struct
import warnings

import numpy as np
import pytest

from bcspec import (
    Bicomplex,
    BicomplexOperator,
    ConvergenceError,
    EigenSet,
    NonFiniteValueError,
    NonSquareError,
    component_spectra,
    eigenspace_sum,
    eigenvalues,
    is_singular_matrix,
    modified_eigenspace,
    nullspace,
    column_space,
)
from bcspec.core import DEFAULT_TOL
from bcspec.linalg import _SCAN_MAX, _cluster_matrix, _scaled, cluster_points, frobenius
from conftest import in_span, side_eigenspaces


def _companion(roots) -> np.ndarray:
    """Companion matrix of the monic polynomial with the given roots."""
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    n = len(coeffs) - 1
    c = np.zeros((n, n), dtype=complex)
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = -coeffs[1:][::-1]
    return c


def _complex_gauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestNullspace:
    def test_zero_matrix_full(self):
        space = nullspace(np.zeros((2, 2)))
        assert space.shape[1] == 2
        assert np.linalg.norm(space.conj().T @ space - np.eye(space.shape[1])) <= 1e-10

    def test_projection(self):
        space = nullspace(np.array([[1, 0], [0, 0]], dtype=complex))
        assert space.shape[1] == 1
        assert in_span(space, [0, 1])
        assert not in_span(space, [1, 0])

    @pytest.mark.parametrize("n,r", [(4, 1), (4, 3), (6, 2), (5, 0), (3, 2)])
    def test_planted_rank(self, n, r):
        rng = np.random.default_rng(100 * n + r)
        if r == 0:
            a = np.zeros((n, n), dtype=complex)
        else:
            a = _complex_gauss(rng, (n, r)) @ _complex_gauss(rng, (r, n))
        space = nullspace(a)
        assert space.shape[1] == n - r
        assert np.linalg.norm(space.conj().T @ space - np.eye(space.shape[1])) <= 1e-10
        for v in space.T:
            assert np.linalg.norm(a @ v) <= 1e-10 * max(frobenius(a), 1.0)

    def test_rectangular(self):
        rng = np.random.default_rng(7)
        a = _complex_gauss(rng, (2, 5))
        space = nullspace(a)
        assert space.shape[1] == 3
        a2 = _complex_gauss(rng, (5, 2))
        assert nullspace(a2).shape[1] == 0

    def test_column_space_rank_nullity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            a = (
                _complex_gauss(rng, (n, r)) @ _complex_gauss(rng, (r, n))
                if r
                else np.zeros((n, n), dtype=complex)
            )
            assert column_space(a).shape[1] + nullspace(a).shape[1] == n


def test_subspaces_are_complex128_basis_arrays():
    # zero, proper and full spaces, real or complex input: (n, k) complex128 arrays
    n = 3
    proper = np.diag([1.0, 1.0, 0.0])
    for a, k_null in ((np.eye(n), 0), (proper, 1), (np.zeros((n, n)), n), (np.zeros((0, n)), n)):
        m, rank = a.shape[0], n - k_null
        for space, shape in ((nullspace(a), (n, k_null)), (column_space(a), (m, rank))):
            assert space.dtype == np.complex128 and space.shape == shape
    # sides from the eig vector (n, 1), the nullspace (n, 2), the zero space (n, 0) and the full space (n, n)
    op = BicomplexOperator(np.diag([2.0, 1.0, 1.0]), np.eye(n))
    report = component_spectra(op)
    for kappa, want in (((2.0, 5.0), (1, 0)), ((1.0, 5.0), (2, 0)), ((7.0, 1.0), (0, n))):
        space = modified_eigenspace(report, Bicomplex(*kappa))
        for side, k in zip((space.minus_basis, space.plus_basis), want):
            assert side.dtype == np.complex128 and side.shape == (n, k)


class TestEigenDecompose:
    """Each cluster of one side and its eigenspace, through report.eigenspaces()."""

    def test_projection_eigenpairs(self):
        es, spaces = side_eigenspaces(np.array([[1, 0], [0, 0]], dtype=complex))
        assert [(v, m) for v, m in es.values] == [(0.0, 1), (1.0, 1)]
        by_value = dict(zip(es.value_list(), spaces))
        assert in_span(by_value[0.0], [0, 1])
        assert in_span(by_value[1.0], [1, 0])

    def test_identity(self):
        es, spaces = side_eigenspaces(np.eye(4, dtype=complex))
        assert es.values == ((1.0 + 0.0j, 4),)
        assert spaces[0].shape[1] == 4

    def test_companion_roots(self):
        roots = [2.0, 3.0, 5.0]
        es, _ = side_eigenspaces(_companion(roots))
        got = sorted(es.multiset(), key=lambda z: z.real)
        assert all(abs(g - r) <= 1e-8 for g, r in zip(got, roots))

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a = _complex_gauss(rng, (n, n))
            assert sum(m for _, m in eigenvalues(a).values) == n

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = _complex_gauss(rng, (n, n))
            es, spaces = side_eigenspaces(a)
            bound = 1e-8 * (1.0 + frobenius(a))
            for (lam, _), space in zip(es.values, spaces):
                assert space.shape[1] >= 1
                for v in space.T:
                    assert np.linalg.norm(a @ v - lam * v) <= bound

    def test_geometric_at_most_algebraic(self):
        # an upper triangular block with equal diagonal is defective
        a = np.array([[2, 0.01, 0], [0, 2, 0], [0, 0, 5]], dtype=complex)
        es, spaces = side_eigenspaces(a)
        by_value = {round(v.real): (m, s.shape[1]) for (v, m), s in zip(es.values, spaces)}
        assert by_value[2] == (2, 1)
        assert by_value[5] == (1, 1)

    def test_simple_clusters_keep_their_eig_vector(self):
        # Generic, planted-multiple (unitarily disguised) and defective
        # (unit-coupling Jordan 2-block) matrices.
        rng = np.random.default_rng(29)
        simple = multiple = 0
        for trial in range(60):
            n = int(rng.integers(2, 9))
            kind = trial % 3
            if kind == 0:
                a = _complex_gauss(rng, (n, n))
            else:
                a = np.diag(_complex_gauss(rng, (n,)))
                a[1, 1] = a[0, 0]
                a[0, 1] = 1.0 if kind == 2 else 0.0
                q, _ = np.linalg.qr(_complex_gauss(rng, (n, n)))
                a = q @ a @ q.conj().T
            es = eigenvalues(a)
            assert len(es.vectors) == len(es.values)
            for (lam, m), v in zip(es.values, es.vectors):
                if m > 1:
                    multiple += 1
                    assert v is None
                else:
                    simple += 1
                    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
                    assert np.linalg.norm(a @ v - lam * v) <= es.tol
        assert simple > 0 and multiple > 0

    def test_equality_and_hash_ignore_vectors(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        es = eigenvalues(a)
        bare = EigenSet(es.values, es.tol)
        assert es.vectors[0] is not None and bare.vectors == (None, None)
        assert es == bare and hash(es) == hash(bare)
        assert len({es, bare}) == 1

    def test_a_non_finite_eig_value_is_refused(self):
        # finite entries, but the eigenvalue 3.4e308 exceeds the float range
        with pytest.raises(NonFiniteValueError, match="non-finite eigenvalue"):
            eigenvalues(np.full((2, 2), 1.7e308))
        # |1.5e308 + 1.5e308i| exceeds the float range and eig gives NaN, but
        # the eigenvalue itself is representable: the scaled eig finds it
        es = eigenvalues(np.array([[1.5e308 + 1.5e308j]]))
        assert es.values == ((1.5e308 + 1.5e308j, 1),)
        assert es.vectors[0].tolist() == [1.0]

    def test_empty_spectrum_impossible(self):
        # complex matrices always carry at least one eigenvalue
        for n in range(1, 5):
            assert len(eigenvalues(np.zeros((n, n))).values) >= 1


class TestSingularityAgreement:
    def test_singular_iff_nullspace(self):
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            if rng.integers(2):
                r = int(rng.integers(0, n))
                a = (
                    _complex_gauss(rng, (n, r)) @ _complex_gauss(rng, (r, n))
                    if r
                    else np.zeros((n, n), dtype=complex)
                )
                expect = True
            else:
                a = _complex_gauss(rng, (n, n))
                expect = False
            assert is_singular_matrix(a) == expect
            assert (nullspace(a).shape[1] > 0) == expect
        with pytest.raises(NonSquareError):
            is_singular_matrix(np.zeros((2, 3)))

    def test_tiny_but_square_is_singular(self):
        # floor-at-1 convention: a near-zero matrix counts as singular
        assert is_singular_matrix(np.array([[1e-16]]))
        assert nullspace(np.array([[1e-16]])).shape[1] == 1
        subnormal = np.array([[5e-324, 1e-310], [0, 5e-324]])
        assert is_singular_matrix(subnormal)
        assert nullspace(subnormal).shape[1] == 2 and column_space(subnormal).shape[1] == 0
        rng = np.random.default_rng(41)
        a = _complex_gauss(rng, (40, 39)) @ _complex_gauss(rng, (39, 40))
        assert is_singular_matrix(a)
        assert nullspace(a).shape[1] == 1

    def test_small_scaled_identity_is_not(self):
        q, r = np.linalg.qr(_complex_gauss(np.random.default_rng(40), (40, 40)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
        for a in (0.01 * np.eye(6), np.eye(17), 0.1 * np.eye(50), 10.0 * np.eye(200), q):
            assert not is_singular_matrix(a)
            assert nullspace(a).shape[1] == 0


#: Entries of the top-of-range CLI fuzz operators (test_cli_fuzz.top), as complex numbers.
TOP_OF_RANGE = [0, 1, 1j, 1e308, -1e308, 1.7e308, 1e200, 1e308j]


class TestRankAtTopOfRange:
    def test_verdicts_match_a_60_digit_svd(self):
        # The rank at the documented threshold tol * max(||A||_F, 1) * n, with
        # the exact Frobenius norm and singular values at 60 digits.  About 40 %
        # of these matrices have a Frobenius norm beyond the float range.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1500)
        wrong = []
        with mpmath.workdps(60):
            for _ in range(1500):
                n = int(rng.integers(1, 4))
                a = np.array(rng.choice(TOP_OF_RANGE, (n, n)), dtype=complex)
                exact = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in a])
                fro = mpmath.sqrt(mpmath.fsum(z.real**2 + z.imag**2 for z in exact))
                threshold = DEFAULT_TOL * max(fro, 1) * n
                sigma = mpmath.svd_c(exact, compute_uv=False)
                rank = sum(1 for k in range(n) if sigma[k] > threshold)
                got = (is_singular_matrix(a), nullspace(a).shape[1], column_space(a).shape[1])
                if got != (rank < n, n - rank, rank):
                    wrong.append((a.tolist(), got, rank))
        assert wrong == []


def _kahan(n: int, theta: float) -> np.ndarray:
    """Kahan's matrix diag(s**k) (I - c * strict upper ones), s = sin(theta), c = cos(theta).

    Its columns all have norm 1, so column pivoting leaves their order alone, and the
    smallest diagonal entry of R, s**(n-1), hides a far smaller sigma_min.
    """
    s, c = math.sin(theta), math.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


class TestKahan:
    def test_rank_deficiency_is_revealed(self):
        # sigma_min is 3.5e-10 (n = 60) and 4.0e-15 (n = 90), below the thresholds
        # 4.6e-8 and 8.5e-8; s**(n-1) is 1.6e-2 and 1.9e-3.
        for n in (60, 90):
            k = _kahan(n, 1.2)
            assert nullspace(k).shape[1] == 1
            assert is_singular_matrix(k)
            assert column_space(k).shape[1] == n - 1

    def test_verdicts_match_a_50_digit_svd(self):
        # Kahan matrices with n <= 12 and power-of-two copies of them, whose
        # singular values and Frobenius norm scale exactly; 2**1023 takes the
        # norm beyond the float range, 2**-30 below the floor at 1.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        wrong, deficient = [], 0
        with mpmath.workdps(50):
            for _ in range(60):
                n = int(rng.integers(2, 13))
                k = _kahan(n, float(rng.uniform(0.1, 1.4)))
                exact = mpmath.matrix(k.tolist())
                sigma = mpmath.svd_r(exact, compute_uv=False)
                fro = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in k.ravel().tolist()))
                for e in (0, -30, -1, 600, 1023):
                    a = np.ldexp(k, e)
                    threshold = DEFAULT_TOL * max(mpmath.ldexp(fro, e), 1) * n
                    rank = sum(1 for x in sigma if mpmath.ldexp(x, e) > threshold)
                    got = (is_singular_matrix(a), nullspace(a).shape[1], column_space(a).shape[1])
                    if got != (rank < n, n - rank, rank):
                        wrong.append((n, e, got, rank))
                    deficient += rank < n
        assert wrong == []
        assert deficient >= 30


def _exact_frobenius(mpmath, a):
    """||A||_F from the exact values of A's float parts, at the working precision."""
    return mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in np.concatenate([a.real.ravel(), a.imag.ravel()])))


class TestOneScale:
    def test_plain_formula_is_reproduced_bit_for_bit(self):
        # Wherever no square underflows and the sum of squares is finite, scaling by a
        # power of two changes no rounding: frobenius is np.linalg.norm and the tol of
        # eigenvalues is cluster_tol * (1 + norm), bit for bit.  The eigensolve is
        # costly, so the tol is checked on the first 500 square draws only.
        rng = np.random.default_rng(2024)
        checked = square = 0
        while checked < 10_000:
            m = int(rng.integers(1, 41))
            n = m if rng.random() < 2 / 3 else int(rng.integers(1, 41))
            a = _complex_gauss(rng, (m, n)) * 10.0 ** rng.uniform(-150, 150)
            parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
            if parts.min() ** 2 < np.finfo(float).tiny:
                continue
            norm = float(np.linalg.norm(a))
            assert frobenius(a) == norm
            if m == n and square < 500:
                assert eigenvalues(a).tol == 1e-8 * (1.0 + norm)
                assert eigenvalues(a, 1e-3).tol == 1e-3 * (1.0 + norm)
                square += 1
            checked += 1
        assert square == 500

    def test_frobenius_matches_a_50_digit_norm_across_the_range(self):
        # Parts below 1 scaled by 2**-1070 (subnormal) to 2**1023.  Where the true norm is
        # beyond the float range, frobenius is inf; where it is subnormal, the error bound
        # is the subnormal spacing 2**-1074.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1070)
        biggest = mpmath.mpf(np.finfo(float).max)
        cases = [np.full((3, 3), 1e-170)]
        for e in np.linspace(-1070, 1023, 300).astype(int):
            m, n = (int(k) for k in rng.integers(1, 9, 2))
            parts = rng.uniform(-1, 1, (2, m, n))
            cases.append(np.ldexp(parts[0], e) + 1j * np.ldexp(parts[1], e))
        with mpmath.workdps(50):
            for a in cases:
                exact = _exact_frobenius(mpmath, a)
                got = frobenius(a)
                if exact > biggest:
                    assert got == math.inf
                else:
                    assert abs(got - exact) <= max(1e-14 * exact, 2.0**-1074), (a.tolist(), got, exact)

    def test_a_stack_scales_and_norms_each_matrix_as_it_would_alone(self):
        # One reduction and one pair of stacked dots per stack: each scale, each scaled matrix and
        # each norm is what the matrix alone gets from its own max, its own *= and np.linalg.norm,
        # byte for byte, at magnitudes 1e-300..1e300, with zero matrices, and on a Fortran-ordered matrix.
        rng = np.random.default_rng(25)
        for trial in range(600):
            k, m = (int(v) for v in rng.integers(1, 13, 2))
            n = m if trial % 3 else int(rng.integers(1, 13))
            stack = _complex_gauss(rng, (k, m, n)) * 10.0 ** rng.uniform(-300, 300, (k, 1, 1))
            stack[0] *= trial % 5 != 0
            if trial % 4 == 0:
                stack = np.array(np.asfortranarray(stack[0])[None])
            want = []
            for a in stack:
                s = math.ldexp(1.0, -max(math.frexp(float(np.abs(a.ravel("K").view(np.float64)).max()))[1], -1021))
                a = a.copy(order="K")
                a *= s
                want.append((s, float(np.linalg.norm(a)), a.tobytes(order="A")))
            scales, norms = _scaled(stack)
            got = [(float(s), float(norm), a.tobytes(order="A")) for s, norm, a in zip(scales, norms, stack)]
            assert got == want, trial

    def test_every_finite_side_gets_a_finite_tolerance(self):
        # ||t||_F = 2.4e308 is beyond the float range; 1e-8 * (1 + ||t||_F) is not.
        mpmath = pytest.importorskip("mpmath")
        t = np.diag([1.7e308, -1.7e308, 1.0])
        got = eigenvalues(t).tol
        with mpmath.workdps(50):
            exact = mpmath.mpf(1e-8) * (1 + _exact_frobenius(mpmath, t))
        assert math.isfinite(got)
        assert abs(got - exact) <= 1e-14 * exact
        assert eigenvalues(np.zeros((0, 0))).tol == 1e-8


def _scan_cluster_points(clusters, tol_abs):
    """The O(k^3) closest-pair scan cluster_points replaces, kept as its reference."""
    clusters = [[complex(v), m, (i,)] for i, (v, m) in enumerate(clusters)]
    while len(clusters) > 1:
        best = (math.inf, -1, -1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                try:
                    d = abs(clusters[i][0] - clusters[j][0])
                except OverflowError:
                    continue
                if d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if i < 0 or d > tol_abs:
            break
        ci, cj = clusters[i], clusters[j]
        total = ci[1] + cj[1]
        clusters[i] = [ci[0] + (cj[0] - ci[0]) * (cj[1] / total), total, ci[2] + cj[2]]
        del clusters[j]
    merged = [tuple(c) for c in clusters]
    merged.sort(key=lambda vc: (vc[0].real, vc[0].imag))
    return merged


def _cluster_case(rng, kind: int, k: int | None = None):
    """Seeded points and tolerance of one kind: ties, ulp steps, inf tolerance, huge points; k points, else 0-13."""
    k = int(rng.integers(0, 14)) if k is None else k
    tol = float(10.0 ** rng.uniform(-3, 0))
    if kind == 0:  # a lattice at spacing tol: many exact ties
        pts = [complex(int(a), int(b)) * tol for a, b in rng.integers(-3, 4, (k, 2))]
    elif kind == 1:  # repeated points, some moved by tol or tol/2
        base = _complex_gauss(rng, (max(k // 2, 1),))
        picks = rng.integers(len(base), size=k)
        pts = [complex(base[i]) + tol * rng.choice([0, 1, -1, 0.5]) for i in picks]
    elif kind == 2:  # a chain of steps at tol and one ulp either side of it
        steps = [tol, np.nextafter(tol, 0.0), np.nextafter(tol, 2.0)]
        pts = [complex(x) for x in np.cumsum([0.0] + [steps[int(rng.integers(3))] for _ in range(k)])]
        pts = [pts[int(i)] for i in rng.permutation(len(pts))]
    elif kind == 3:  # magnitudes from 1 to 1e308 at an infinite tolerance
        mags = rng.standard_normal(k) * 10.0 ** rng.uniform(0, 308, k)
        pts = [complex(m) * complex(rng.choice([1, -1, 1j, -1j])) for m in mags]
        tol = math.inf
    elif kind == 4:  # points at 1e154-1e308, where distances and means overflow
        re = rng.choice([1, -1], k) * 10.0 ** rng.uniform(154, 308, k)
        im = rng.choice([0, 1, -1], k) * 10.0 ** rng.uniform(154, 308, k)
        pts = [complex(a, b) for a, b in zip(re, im)]
        tol = [math.inf, 1e307, 1e300, 1e-8][int(rng.integers(4))]
    else:
        pts = list(_complex_gauss(rng, (k,)))
        tol = float(rng.uniform(0.0, 2.0))
    return pts, tol


def _planted_case(rng):
    """20-80 shuffled points in planted clusters: members on a tol/2 lattice or jittered about a centre."""
    k = int(rng.integers(20, 81))
    tol = float(10.0 ** rng.uniform(-3, 0))
    centres = _complex_gauss(rng, (int(rng.integers(1, k // 3 + 1)),)) * tol * rng.uniform(2, 20)
    pts = []
    for c in centres[rng.integers(len(centres), size=k)]:
        if rng.random() < 0.5:  # exact ties at tol/2 and tol
            a, b = rng.integers(-1, 2, 2)
            pts.append(complex(c) + complex(int(a), int(b)) * (tol / 2))
        else:
            pts.append(complex(c + _complex_gauss(rng, ()) * tol * 0.3))
    return pts, tol


def _bits(clusters):
    """The (representative, count) part of each cluster with the representative as raw bits, so equal means bit for bit."""
    return [(struct.pack("<dd", z.real, z.imag), m) for z, m, *_ in clusters]


def _as_scan(clusters, tol_abs):
    """cluster_points and its distance-matrix path at any k, each asserted to make the scan's clusters bit for bit and the scan's member partition."""
    want, got = _scan_cluster_points(clusters, tol_abs), cluster_points(clusters, tol_abs)
    matrix = _cluster_matrix([complex(v) for v, _ in clusters], [m for _, m in clusters], [(i,) for i in range(len(clusters))], tol_abs)
    for out in (got, matrix):
        assert _bits(out) == _bits(want), (clusters, tol_abs)
        assert [c[2] for c in out] == [c[2] for c in want], (clusters, tol_abs)
        assert sorted(i for c in out for i in c[2]) == list(range(len(clusters)))
    return got


class TestClustering:
    def test_same_merges_as_the_closest_pair_scan(self):
        rng = np.random.default_rng(2024)
        for case in range(3000):
            pts, tol = _cluster_case(rng, case % 6)
            _as_scan([(p, 1) for p in pts], tol)

    def test_weighted_clusters_merge_as_the_scan(self):
        # the same point stream, with counts 1-3 from a second generator
        rng, weights = np.random.default_rng(2024), np.random.default_rng(2025)
        for case in range(3000):
            pts, tol = _cluster_case(rng, case % 6)
            clusters = [(p, int(m)) for p, m in zip(pts, weights.integers(1, 4, len(pts)))]
            got = _as_scan(clusters, tol)
            assert sum(m for _, m, _ in got) == sum(m for _, m in clusters)

    def test_both_sides_of_the_path_switch_merge_as_the_scan(self):
        # k = 16 is the last size the plain-Python scan takes, k = 17 the first the distance matrix takes
        assert _SCAN_MAX == 16
        rng, weights = np.random.default_rng(2029), np.random.default_rng(2030)
        sizes = set()
        for case in range(600):
            pts, tol = _cluster_case(rng, case % 6, k=16 + case % 12 // 6)
            _as_scan([(p, int(m)) for p, m in zip(pts, weights.integers(1, 4, len(pts)))], tol)
            sizes.add(len(pts))
        assert {16, 17} <= sizes

    def test_planted_clusters_deep_in_the_matrix_merge_as_the_scan(self):
        # k = 20-80, so merges refresh rows and columns far from the corner
        rng, weights = np.random.default_rng(2027), np.random.default_rng(2028)
        merged = 0
        for case in range(100):
            pts, tol = _planted_case(rng)
            counts = weights.integers(1, 4, len(pts)) if case % 2 else np.ones(len(pts), dtype=int)
            clusters = [(p, int(m)) for p, m in zip(pts, counts)]
            got = _as_scan(clusters, tol)
            merged += len(clusters) - len(got)
        assert merged > 2000

    def test_overflowing_means_match_the_scan(self):
        for pts, tol in (
            ([1e308, 1e308, 1e308, -1e308], math.inf),
            ([1.5e308 + 1e308j, 1.6e308 - 1e308j, -1e308 + 1e308j], math.inf),
            ([1e308, 1.2e308, 1.7e308, 1.1e308], 1e308),
        ):
            got = _as_scan([(p, 1) for p in pts], tol)
            assert sum(m for _, m, _ in got) == len(pts)
            assert all(cmath.isfinite(v) for v, _, _ in got), got

    def test_a_tie_after_a_merge_goes_to_the_first_pair(self):
        # 0's nearest is -1 until 1 +- 2**-10 i merge into 1, which ties it and comes first
        clusters = [(0j, 1), (1 + 2**-10 * 1j, 1), (1 - 2**-10 * 1j, 1), (-1 + 0j, 1)]
        got = _as_scan(clusters, 1.0)
        assert got == [(-1 + 0j, 1, (3,)), (2 / 3 + 0j, 3, (0, 1, 2))]

    def test_equal_copies_keep_their_value(self):
        rng = np.random.default_rng(2026)
        for m in (3, 4, 5, 64):
            for a in _complex_gauss(rng, (500,)).tolist():
                assert cluster_points([(a, 1)] * m, 1e-8) == [(a, m, tuple(range(m)))]
                assert _bits(cluster_points([(a, 1)] * m, 1e-8)) == _bits([(a, m)])

    def test_merges_close_points(self):
        merged = cluster_points([(1.0, 1), (1.0 + 1e-12, 1), (5.0, 1)], tol_abs=1e-8)
        assert [(round(v.real), m, idx) for v, m, idx in merged] == [(1, 2, (0, 1)), (5, 1, (2,))]

    def test_representatives_separated(self):
        rng = np.random.default_rng(5)
        pts = list(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        pts += [pts[0] + 1e-12, pts[3] + 2e-12]
        merged = cluster_points([(p, 1) for p in pts], tol_abs=1e-8)
        reps = [v for v, _, _ in merged]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert abs(reps[i] - reps[j]) > 1e-8
        assert sum(m for _, m, _ in merged) == len(pts)
        assert {idx for *_, idx in merged if len(idx) > 1} == {(0, 12), (3, 13)}

    def test_cluster_tolerance_scale(self):
        a = np.eye(3) * 100
        assert eigenvalues(a, 1e-8).tol == pytest.approx(1e-8 * (1 + frobenius(a)))

    def test_membership_boundary(self):
        es = EigenSet(((1.0 + 0j, 1), (4.0 + 0j, 2)), tol=0.5)
        assert es.contains(1.5) and es.contains(0.5) and es.contains(4.0 + 0.5j)  # ties are members
        assert not es.contains(np.nextafter(1.5, 2.0))
        assert not es.contains(2.5)

    def test_near_is_python_abs(self):
        rng = np.random.default_rng(2503)

        def draw(k, exponent):
            scale = 10.0 ** rng.integers(-exponent, exponent + 1, (2, k))
            return rng.standard_normal(k) * scale[0] + 1j * rng.standard_normal(k) * scale[1]

        for points, reps in ((draw(5000, 300), draw(8, 300)), (draw(1000, 0), draw(8, 0))):
            values = tuple((complex(v), 1) for v in reps)
            expected = np.array([[abs(complex(z) - complex(v)) for v in reps] for z in points])
            # np.abs rounds some of these differently, so it could not stand in for abs.
            assert (np.abs(points[:, None] - reps) != expected).any()
            for z, row in zip(points, expected):
                # a tolerance at the distance to one cluster makes that cluster a tie
                es = EigenSet(values, tol=float(row[int(rng.integers(len(reps)))]))
                want = [k for k, d in enumerate(row) if d <= es.tol]
                assert es.near(complex(z)) == want
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert es.near(z) == want  # an np.complex128 point

    def test_an_overflowed_distance_is_not_a_member(self):
        es = EigenSet(((0j, 1), (1 + 0j, 1)), tol=1.0)
        z = complex(1.3e308, 1.3e308)
        with pytest.raises(OverflowError):
            abs(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert es.near(z) == es.near(np.complex128(z)) == []
            assert not es.contains(z)
        assert EigenSet(es.values, tol=math.inf).near(z) == [0, 1]

    def test_near_takes_a_tie_at_the_boundary(self):
        rng = np.random.default_rng(7)
        for z in rng.standard_normal(300) + 1j * rng.standard_normal(300):
            d = abs(complex(z) - 1.0)
            # z sits at exactly tol, then at the next float beyond it.
            assert EigenSet(((1.0 + 0j, 1),), tol=d).near(z) == [0]
            assert EigenSet(((1.0 + 0j, 1),), tol=float(np.nextafter(d, 0.0))).near(z) == []
        # a wider point is rounded to a Python complex before the distance
        wide = np.clongdouble(1) + np.clongdouble(2) ** -60
        assert EigenSet(((1.0 + 0j, 1),), tol=0.0).near(wide) == [0]


class TestSubspaceArithmetic:
    """eigenspace_sum: one rank test per side, the intersection by Grassmann's formula."""

    @staticmethod
    def _sum(t1, t2, kappa, kappa_prime):
        op = BicomplexOperator(np.asarray(t1, dtype=complex), np.asarray(t2, dtype=complex))
        return eigenspace_sum(component_spectra(op), kappa, kappa_prime)

    def test_sum_and_intersection_of_planes(self):
        # both kappas share the minus space span{e0}; the plus spaces differ
        rep = self._sum(np.diag([1, 0, 0]), np.diag([2, 3, 3]), Bicomplex(1, 2), Bicomplex(1, 3))
        assert (rep.dim_first, rep.dim_second) == (2, 3)
        assert (rep.sum_dim, rep.intersection_dim, rep.is_direct) == (4, 1, False)

    def test_zero_cases(self):
        t1, t2 = np.diag([1, 0, 0]), np.diag([2, 3, 3])
        # opposite one-sided kappas: each side stacks a space with {0}
        rep = self._sum(t1, t2, Bicomplex(1, 7), Bicomplex(5, 3))
        assert (rep.dim_first, rep.dim_second) == (1, 2)
        assert (rep.sum_dim, rep.intersection_dim, rep.is_direct) == (3, 0, True)
        # both plus sides are {0}: the stacked basis has no column
        rep = self._sum(t1, t2, Bicomplex(1, 7), Bicomplex(0, 8))
        assert (rep.dim_first, rep.dim_second) == (1, 2)
        assert (rep.sum_dim, rep.intersection_dim, rep.is_direct) == (3, 0, True)

    def test_intersection_of_same_space(self):
        # the same two-dimensional minus space twice, of a non-normal t1
        rng = np.random.default_rng(41)
        p = _complex_gauss(rng, (5, 5))
        t1 = p @ np.diag([0, 0, 1, 2, 3]) @ np.linalg.inv(p)
        rep = self._sum(t1, 9 * np.eye(5), Bicomplex(0, 7), Bicomplex(0, 8))
        assert (rep.dim_first, rep.dim_second) == (2, 2)
        assert (rep.sum_dim, rep.intersection_dim, rep.is_direct) == (2, 2, False)


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, Exception)
