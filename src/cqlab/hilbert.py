"""Finite-dimensional real Hilbert space primitives.

Vectors are plain 1-d float64 arrays; symmetric operators are square
float64 arrays that have been symmetrized on construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalError

# `require_symmetric` accepts |a_ij - a_ji| <= SYMMETRY_RTOL * (1 + max |a_ij|)
SYMMETRY_RTOL = 1e-12


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-d float64 field vector, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected length {dim}, got {v.shape[0]}")
    return v


def symmetric_from_entries(raw) -> np.ndarray:
    """Build a symmetric operator from a raw square matrix as (raw + raw.T)/2."""
    m = np.asarray(raw, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.T) / 2.0


def require_symmetric(a) -> np.ndarray:
    """Check near-symmetry and return the exactly symmetrized matrix."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL * scale:
        raise DimensionMismatchError("matrix is not symmetric")
    return (m + m.T) / 2.0


def trace_product(a, b) -> float:
    """Sum_ij A[i,j] B[i,j]; equals Tr(AB) for symmetric A, B."""
    am = np.asarray(a, dtype=np.float64)
    bm = np.asarray(b, dtype=np.float64)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    return float(np.sum(am * bm))


def outer_product(psi) -> np.ndarray:
    """Rank-1 operator psi (x) psi; its trace is ||psi||^2."""
    v = as_vector(psi)
    return np.outer(v, v)


def operator_norm(a) -> float:
    """Spectral norm of a symmetric operator (largest |eigenvalue|)."""
    vals = np.linalg.eigvalsh(require_symmetric(a))
    return float(np.abs(vals).max(initial=0.0))


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues


def spectral_decompose(a) -> SpectralDecomposition:
    """Eigendecompose a symmetric operator, eigenvalues sorted descending.

    Each eigenvector is canonicalized so its first nonzero coordinate is
    positive, which makes the decomposition deterministic for simple spectra.
    """
    m = require_symmetric(a)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    mags = np.abs(vecs)
    nz = mags > 1e-12 * mags.max(axis=0, initial=0.0)
    if nz.size:  # argmax has no answer on the 0 x 0 matrix
        # per column, the first coordinate above the round-off threshold;
        # argmax finds index 0 in a column with none, which nz then rejects
        cols = np.arange(nz.shape[1])
        first = nz.argmax(axis=0)
        flip = nz[first, cols] & (vecs[first, cols] < 0.0)
        vecs[:, flip] = -vecs[:, flip]
    return SpectralDecomposition(vals, vecs)
