from __future__ import annotations

import numpy as np
import pytest

from cqlab.errors import DimensionMismatchError
from cqlab.hilbert import (
    outer_product,
    spectral_decompose,
    symmetric_from_entries,
    trace_product,
)


def test_symmetrize_asymmetric_input():
    out = symmetric_from_entries([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(out, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_identity_unchanged():
    assert np.array_equal(symmetric_from_entries(np.eye(3)), np.eye(3))


def test_symmetrize_already_symmetric_unchanged():
    m = np.array([[0.0, 5.0], [5.0, 0.0]])
    assert np.array_equal(symmetric_from_entries(m), m)


def test_symmetrize_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        symmetric_from_entries(np.ones((2, 3)))


def test_trace_identity():
    assert np.trace(np.eye(4)) == 4.0


def test_trace_diag():
    assert np.trace(np.diag([0.3, 0.7])) == 1.0


def test_trace_traceless():
    assert np.trace([[2.0, 9.0], [9.0, -2.0]]) == 0.0


def test_trace_product_identity_left():
    b = symmetric_from_entries(np.arange(9.0).reshape(3, 3))
    assert trace_product(np.eye(3), b) == np.trace(b)


def test_trace_product_diagonal():
    assert trace_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 11.0


def test_trace_product_matches_matrix_product_trace():
    # independent oracle: dense matmul then diagonal sum
    rng = np.random.default_rng(42)
    a = symmetric_from_entries(rng.normal(size=(5, 5)))
    b = symmetric_from_entries(rng.normal(size=(5, 5)))
    oracle = float(np.trace(a @ b))
    assert trace_product(a, b) == pytest.approx(oracle, rel=1e-12)


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_product(np.eye(2), np.eye(3))


def test_trace_product_symmetric_in_arguments():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = symmetric_from_entries(rng.normal(size=(4, 4)))
        b = symmetric_from_entries(rng.normal(size=(4, 4)))
        assert trace_product(a, b) == trace_product(b, a)


def test_spectral_diagonal_sorted_descending():
    dec = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(dec.eigenvalues, [3.0, 2.0, 1.0])


def test_spectral_textbook_two_by_two():
    dec = spectral_decompose([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.eigenvectors[:, 0], [s, s], atol=1e-14)
    assert np.allclose(dec.eigenvectors[:, 1], [s, -s], atol=1e-14)


def test_spectral_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(3)
    dec = spectral_decompose(symmetric_from_entries(rng.normal(size=(6, 6))))
    for j in range(6):
        col = dec.eigenvectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert col[nz[0]] > 0.0


def _sign_canonical_by_loop(a):
    # the column-by-column reference that spectral_decompose vectorizes
    m = symmetric_from_entries(a)
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max(initial=0.0))[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, j] = -col
    return vals, vecs


def _rank_deficient(n, rank, seed):
    g = np.random.default_rng(seed).normal(size=(n, rank))
    return g @ g.T


_SIGN_CASES = {
    "random-1": np.random.default_rng(0).normal(size=(1, 1)),
    "random-6": symmetric_from_entries(np.random.default_rng(1).normal(size=(6, 6))),
    "random-64": symmetric_from_entries(np.random.default_rng(2).normal(size=(64, 64))),
    "identity-8": np.eye(8),
    "block-repeated": np.kron(np.eye(3), np.array([[2.0, 1.0], [1.0, 2.0]])),
    "repeated-diagonal": np.diag([1.0, 3.0, 1.0, 3.0, 0.5]),
    "rank2-of-8": _rank_deficient(8, 2, 3),
    "rank1-of-64": _rank_deficient(64, 1, 4),
    "zero-5": np.zeros((5, 5)),
    "zero-0": np.zeros((0, 0)),
}


@pytest.mark.parametrize("case", list(_SIGN_CASES))
def test_spectral_sign_canonicalization_equals_the_loop(case):
    a = _SIGN_CASES[case]
    dec = spectral_decompose(a)
    vals, vecs = _sign_canonical_by_loop(a)
    # compared as raw bits: negation is exact, so no bit may move
    assert dec.eigenvalues.tobytes() == vals.tobytes()
    assert dec.eigenvectors.tobytes() == vecs.tobytes()


@pytest.mark.parametrize("n", [2, 8, 64])
def test_spectral_reconstruction_residual(n):
    rng = np.random.default_rng(n)
    a = symmetric_from_entries(rng.normal(size=(n, n)))
    dec = spectral_decompose(a)
    q = dec.eigenvectors
    residual = np.linalg.norm((q * dec.eigenvalues) @ q.T - a)
    assert residual <= 1e-10 * (1.0 + np.linalg.norm(a))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.abs(gram - np.eye(n)).max() <= 1e-10


def test_outer_product_basis_vector():
    assert np.array_equal(outer_product([1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]])


def test_outer_product_diagonal_direction():
    s = 1.0 / np.sqrt(2.0)
    got = outer_product([s, s])
    assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_outer_product_trace_is_norm_squared():
    assert np.trace(outer_product([3.0, 4.0])) == 25.0


def test_outer_product_positive_semidefinite():
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = rng.normal(size=5)
        vals = np.linalg.eigvalsh(outer_product(psi))
        assert vals.min() >= -1e-12 * float(psi @ psi)
