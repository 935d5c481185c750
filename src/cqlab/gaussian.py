"""Zero-mean Gaussian measures on the truncated space.

A state is determined by its covariance operator B.  Its dispersion is
Tr B, the mean squared field norm.  Sampling factors B through its
spectral decomposition so rank-deficient covariances (pure states) work
without pivoting, and draws come from counter-based Philox substreams so
batches are bit-reproducible regardless of how many workers fill them.
"""

from __future__ import annotations

import concurrent.futures
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassMembershipError,
    DegenerateStateError,
    DimensionMismatchError,
    InvalidCovarianceError,
)
from .hilbert import SpectralDecomposition, as_vector, outer_product, require_symmetric, spectral_decompose

DEFAULT_CHUNK_SIZE = 4096

# Round-off clip: eigenvalues of B within EIG_CLIP_REL * Tr B of zero are
# treated as exact zeros (eigh of a rank-deficient matrix emits spurious
# values at this scale on both sides); anything below the negative clip
# rejects the covariance as indefinite.
EIG_CLIP_REL = 1e-12

EXACT_CLASS_RTOL = 1e-9


@dataclass(frozen=True)
class AlphaClass:
    """Dispersion class: exact Tr B == alpha, or any positive dispersion."""

    alpha: float
    tolerance_mode: str = "exact"  # "exact" | "approximate"

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.tolerance_mode not in ("exact", "approximate"):
            raise ValueError(f"unknown tolerance_mode {self.tolerance_mode!r}")


@dataclass(frozen=True)
class SampleBatch:
    """Deterministic batch of field samples, one row per draw."""

    samples: np.ndarray  # (count, dim), or (count,) when each draw is one value
    seed: int
    chunk_size: int
    chunk_count: int

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def to_csv(self, path_or_buffer) -> None:
        """Write one row per sample; the header records seed and chunk layout."""
        if hasattr(path_or_buffer, "write"):
            self._write_csv(path_or_buffer)
        else:
            with open(path_or_buffer, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh: io.TextIOBase) -> None:
        fh.write(f"# seed={self.seed} chunk_size={self.chunk_size} chunk_count={self.chunk_count}\n")
        fh.write(",".join(f"psi_{i + 1}" for i in range(self.dim)) + "\n")
        for row in self.samples:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def substream(seed: int, tag: int) -> np.random.Generator:
    """The Philox stream keyed by (seed mod 2^64, tag); every seeded draw
    in the package comes from one of these."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of a 1-D array and its standard error (ddof=1).

    Squared deviations overflow for finite values above about 1e154, and
    the running sum for finite values near the largest double; either
    statistic is then taken of the values divided by their largest
    magnitude and scaled back.
    """
    with np.errstate(over="ignore"):
        mean, std = np.mean(values), np.std(values, ddof=1)
    if not (math.isfinite(mean) and math.isfinite(std)) and np.all(np.isfinite(values)):
        scale = np.max(np.abs(values))
        if not math.isfinite(mean):
            mean = scale * np.mean(values / scale)
        if not math.isfinite(std):
            std = scale * np.std(values / scale, ddof=1)
    return float(mean), float(std / math.sqrt(values.shape[0]))


def draw_chunked(seed: int, count: int, fill, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 workers: int = 1) -> SampleBatch:
    """Assemble `count` rows from per-chunk generators.

    `fill(rng, m)` must return m values, shape (m,), or m rows, shape
    (m, dim), using only `rng`.  Chunk c always uses the Philox stream keyed
    by (seed, c) and writes its own slice of one output array sized from
    chunk 0, so the result is independent of `workers` and of scheduling
    order, and no chunk outlives its copy into the output.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n_chunks = (count + chunk_size - 1) // chunk_size

    def make(c: int) -> np.ndarray:
        m = min(chunk_size, count - c * chunk_size)
        return fill(substream(seed, c), m)

    first = make(0)
    out = np.empty((count,) + first.shape[1:], dtype=first.dtype)
    out[:first.shape[0]] = first

    def put(c: int) -> None:
        out[c * chunk_size:(c + 1) * chunk_size] = make(c)

    # one worker per remaining chunk at most
    workers = min(workers, n_chunks - 1)
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(put, range(1, n_chunks)))  # re-raises a failed chunk's error
    else:
        for c in range(1, n_chunks):
            put(c)
    return SampleBatch(samples=out, seed=int(seed), chunk_size=chunk_size, chunk_count=n_chunks)


class GaussianState:
    """Zero-mean Gaussian measure with covariance B (symmetric PSD)."""

    def __init__(self, covariance, alpha_class: AlphaClass | None = None):
        b = np.asarray(covariance, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise InvalidCovarianceError("covariance has non-finite entries")
        b = require_symmetric(b)
        self.covariance = b
        self.dim = b.shape[0]
        self._factor: SpectralDecomposition | None = None
        tr = float(np.trace(b))
        floor = -EIG_CLIP_REL * max(tr, 0.0)
        min_eig = float(np.linalg.eigvalsh(b).min())
        if min_eig < floor:
            raise InvalidCovarianceError(
                f"covariance is indefinite: min eigenvalue {min_eig:.3e} below clip {floor:.3e}")
        if tr < 0.0:
            raise InvalidCovarianceError(f"covariance has negative trace {tr:.3e}")
        if alpha_class is not None:
            if alpha_class.tolerance_mode == "exact":
                if abs(tr - alpha_class.alpha) > EXACT_CLASS_RTOL * alpha_class.alpha:
                    raise ClassMembershipError(
                        f"dispersion {tr!r} is not alpha={alpha_class.alpha!r} within "
                        f"{EXACT_CLASS_RTOL} relative")
            elif tr <= 0.0:
                raise ClassMembershipError(
                    "the approximate dispersion class needs positive dispersion")
        self.alpha_class = alpha_class

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    def dispersion(self) -> float:
        return float(np.trace(self.covariance))

    def factor(self) -> SpectralDecomposition:
        """Spectral factor of B with round-off eigenvalues clipped to zero."""
        if self._factor is None:
            dec = spectral_decompose(self.covariance)
            clip = EIG_CLIP_REL * max(float(np.trace(self.covariance)), 0.0)
            vals = np.where(dec.eigenvalues < clip, 0.0, dec.eigenvalues)
            self._factor = SpectralDecomposition(vals, dec.eigenvectors)
        return self._factor

    def sampling_matrix(self) -> np.ndarray:
        """F with F F^T = B (columns of zero eigenvalue are exactly zero)."""
        dec = self.factor()
        return dec.eigenvectors * np.sqrt(dec.eigenvalues)

    def fourier_transform(self, y) -> float:
        v = as_vector(y, self.dim)
        return float(np.exp(-0.5 * float(v @ self.covariance @ v)))

    def fill(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m rows drawn from N(0, B) using only `rng`."""
        # draw dim normals per sample so the stream layout does not depend
        # on the covariance rank, then apply the active factor
        z = rng.standard_normal((m, self.dim))
        rank = int(np.count_nonzero(self.factor().eigenvalues > 0.0))
        if not rank:
            return np.zeros((m, self.dim))
        return z[:, :rank] @ self.sampling_matrix()[:, :rank].T

    def sample(self, seed: int, count: int, chunk_size: int = DEFAULT_CHUNK_SIZE,
               workers: int = 1) -> SampleBatch:
        return draw_chunked(seed, count, self.fill, chunk_size=chunk_size, workers=workers)


def make_gaussian(covariance, alpha_class: AlphaClass | None = None) -> GaussianState:
    return GaussianState(covariance, alpha_class=alpha_class)


def dispersion(rho: GaussianState) -> float:
    return rho.dispersion()


def fourier_transform(rho: GaussianState, y) -> float:
    return rho.fourier_transform(y)


def scale_measure(rho: GaussianState, alpha: float) -> GaussianState:
    """Pushforward under psi -> psi / sqrt(alpha); covariance becomes B/alpha."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return GaussianState(rho.covariance / alpha)


def sample(rho: GaussianState, seed: int, count: int, chunk_size: int = DEFAULT_CHUNK_SIZE,
           workers: int = 1) -> SampleBatch:
    return rho.sample(seed, count, chunk_size=chunk_size, workers=workers)


def pure_state_measure(psi, alpha: float) -> GaussianState:
    """Rank-1 Gaussian mixture concentrated on span{psi}, covariance alpha psi (x) psi."""
    v = as_vector(psi)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not float(v @ v) > 0.0:
        raise DegenerateStateError("pure-state direction must be a nonzero vector")
    return GaussianState(alpha * outer_product(v))


def chebyshev_tail(rho: GaussianState, c: float, batch: SampleBatch) -> tuple[float, float]:
    """Markov-type tail bound vs the observed fraction of ||psi||^2 > C."""
    if not c > 0.0:
        raise ValueError(f"C must be positive, got {c}")
    if batch.dim != rho.dim:
        raise DimensionMismatchError(f"batch dim {batch.dim} vs state dim {rho.dim}")
    bound = min(1.0, rho.dispersion() / c)
    energies = np.einsum("pi,pi->p", batch.samples, batch.samples)
    empirical = float(np.mean(energies > c))
    return bound, empirical


def exact_span_coefficients(samples: np.ndarray, direction) -> tuple[np.ndarray, np.ndarray]:
    """Exhibit float coefficients c with samples[i] == c[i] * direction elementwise.

    Returns (ok, coeffs).  ok[i] is True when some double c reproduces row i
    bit-for-bit under IEEE multiplication, which is the strongest form of
    "lies in span{direction}" available in floating point.  Candidates are
    the per-row division estimate and its +-2 ulp neighbours.
    """
    u = as_vector(direction)
    if not np.any(u != 0.0):
        raise ValueError("direction must be nonzero")
    jmax = int(np.argmax(np.abs(u)))
    base = samples[:, jmax] / u[jmax]
    ok = np.zeros(samples.shape[0], dtype=bool)
    coeffs = base.copy()
    candidates = [base]
    lo = hi = base
    for _ in range(2):
        hi = np.nextafter(hi, np.inf)
        lo = np.nextafter(lo, -np.inf)
        candidates.extend([hi, lo])
    for cand in candidates:
        rec = cand[:, None] * u[None, :]
        hit = np.all(rec == samples, axis=1) & ~ok
        coeffs[hit] = cand[hit]
        ok |= hit
    return ok, coeffs
