from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import gaussian
from cqlab.correspondence import t_state
from cqlab.errors import ClassMembershipError, InvalidCovarianceError
from cqlab.gaussian import (
    COPIES,
    DEFAULT_CHUNK_SIZE,
    GaussianState,
    Moments,
    chebyshev_tail,
    copy_steps,
    draw_chunked,
    exact_span_coefficients,
    merged,
    pure_state_measure,
    sampling_workers,
    substream,
)
from cqlab.hilbert import outer_product


def test_make_gaussian_exact_class_accepted():
    rho = GaussianState(np.diag([0.05, 0.05]))
    assert np.array_equal(t_state(rho, 0.1).matrix, np.diag([0.5, 0.5]))


def test_make_gaussian_rejects_indefinite():
    # the second has a negative trace, so its clip is zero
    for bad in ([[1.0, 2.0], [2.0, 1.0]], -np.eye(2)):
        with pytest.raises(InvalidCovarianceError):
            GaussianState(bad)


def test_make_gaussian_rejects_non_finite_covariance():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidCovarianceError):
            GaussianState(np.diag([1.0, bad]))


def test_make_gaussian_rejects_wrong_dispersion_in_exact_mode():
    rho = GaussianState(np.diag([0.05, 0.05]))  # dispersion 0.1
    with pytest.raises(ClassMembershipError):
        t_state(rho, 0.2)


def test_make_gaussian_rank_one_pure_state_class():
    psi = np.array([0.6, 0.8])
    rho = GaussianState(0.1 * outer_product(psi))
    assert rho.dispersion() == pytest.approx(0.1, rel=1e-12)
    assert np.allclose(t_state(rho, 0.1).matrix, outer_product(psi), rtol=0.0, atol=1e-15)


_FACTOR_STATES = {
    "random": lambda: GaussianState(np.cov(np.random.default_rng(1).normal(size=(6, 20)))),
    "rank1": lambda: pure_state_measure(np.array([0.6, 0.0, 0.8]), 0.1),
    "zero-weight-diagonal": lambda: GaussianState(np.diag([0.05, 0.0, 0.03, 0.0, 0.02])),
}


@pytest.mark.parametrize("state", list(_FACTOR_STATES))
def test_fill_is_the_white_draws_through_the_active_factor(state):
    rho = _FACTOR_STATES[state]()
    z = rho.white(substream(3, 0), 50)
    x = rho.fill(substream(3, 0), 50)
    assert z.shape == (50, rho.active_factor.shape[1])
    assert np.array_equal(x, z @ rho.active_factor.T)
    fmat = rho.active_factor
    assert np.abs(fmat @ fmat.T - rho.covariance).max() <= 1e-14 * rho.dispersion()


def test_dispersion_isotropic():
    n, alpha = 6, 0.02
    rho = GaussianState(np.eye(n) * alpha)
    assert rho.dispersion() == pytest.approx(n * alpha, rel=1e-12)


def test_dispersion_rank_one():
    psi = np.array([1.0, 0.0, 0.0])
    rho = pure_state_measure(psi, 0.05)
    assert rho.dispersion() == pytest.approx(0.05, rel=1e-12)


def test_dispersion_monte_carlo():
    # oracle: sample mean of ||psi||^2 must sit within 4 standard errors
    rho = GaussianState(np.diag([0.3, 0.5, 0.2]))
    x = rho.sample(seed=101, count=100_000)
    energies = np.einsum("pi,pi->p", x, x)
    se = energies.std(ddof=1) / math.sqrt(len(x))
    assert abs(energies.mean() - rho.dispersion()) <= 4.0 * se


def test_scaled_samples_covariance():
    # MC oracle: the sample covariance approaches B/alpha
    alpha = 0.1
    b = np.diag([0.06, 0.04])
    scaled = GaussianState(b / alpha)
    x = scaled.sample(seed=33, count=100_000)
    cov_hat = x.T @ x / len(x)
    target = b / alpha
    band = 4.0 * np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target ** 2) / len(x))
    assert np.all(np.abs(cov_hat - target) <= band + 1e-12)


def test_sample_variances_land_in_band():
    rho = GaussianState(np.diag([1.0, 4.0]))
    v = rho.sample(seed=77, count=100_000).var(axis=0, ddof=1)
    assert 0.95 <= v[0] <= 1.05
    assert 3.8 <= v[1] <= 4.2


def test_sample_rank_one_axis_coordinates_exactly_zero():
    rho = pure_state_measure(np.array([1.0, 0.0, 0.0]), 0.03)
    assert np.all(rho.sample(seed=5, count=5000)[:, 1:] == 0.0)


def test_sample_deterministic_across_worker_counts(helpers_started):
    rho = GaussianState(np.diag([1.0, 2.0, 3.0]))
    one = rho.sample(seed=9, count=20_000)
    with sampling_workers(8):
        eight = rho.sample(seed=9, count=20_000)
    assert np.array_equal(one, eight) and one.shape == (20_000, 3)
    # 5 chunks of 4096 rows: the calling thread and 4 helpers, one per chunk
    assert helpers_started == [f"cqlab-sampler-{n}" for n in range(1, 5)]


# sha256 of the sampled bytes of the SFC64 chunk streams; a diagonal factor
# keeps the bits independent of the BLAS
SAMPLE_STREAM_SHA256 = "97899826333c3d1bb4ffd8ed96fbf89a79bb0a74f783ac0c61b169573e27e3de"


@pytest.mark.parametrize("workers", [1, 8])
def test_sample_stream_is_pinned(workers):
    rho = GaussianState(np.diag([1.0, 2.0, 3.0]))
    with sampling_workers(workers):
        x = rho.sample(seed=9, count=20_000)
    assert hashlib.sha256(x.tobytes()).hexdigest() == SAMPLE_STREAM_SHA256


MASK64 = 2 ** 64 - 1


@pytest.mark.parametrize("seed", [0, 9, 2 ** 32, MASK64])
@pytest.mark.parametrize("chunk", [0, 1, 5])
def test_substream_is_a_spawned_child(seed, chunk):
    # chunk c of a run is child c of SeedSequence(seed), NumPy's parallel-stream recipe
    child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
    expected = np.random.Generator(np.random.SFC64(child)).standard_normal(64)
    assert np.array_equal(substream(seed, chunk).standard_normal(64), expected)


def test_substream_keeps_seed_and_tag_apart():
    # a SeedSequence([seed, tag]) entropy list joins the 32-bit words of both,
    # so these two pairs would build one state
    assert not np.array_equal(substream(0, 1 + 5 * 2 ** 32).standard_normal(8),
                              substream(2 ** 32, 5).standard_normal(8))


def test_substream_seed_is_taken_mod_2_64():
    assert np.array_equal(substream(-1, 7).standard_normal(8),
                          substream(MASK64, 7).standard_normal(8))


def test_substream_first_outputs_are_pairwise_distinct():
    reserved = (gaussian.OPERATOR_TAG, gaussian.STATE_TAG, gaussian.FINITE_QM_TAG,
                gaussian.HIGHER_ORDER_TAG, gaussian.MOMENTS_TAG, gaussian.SYMMETRY_TAG)
    firsts = [substream(seed, tag).bit_generator.random_raw()
              for seed in (0, 1, 2 ** 32, MASK64) for tag in (*range(1024), *reserved)]
    assert len(set(firsts)) == len(firsts) == 4 * 1030


# sha256 of the copy steps of (seed 1, rank 64), as CI prints it: the
# permutations as little-endian int64, then the signs as float64, step by step
COPY_STEPS_SHA256 = "7c226c687d35d2f79c8ca9681725be10847f7b55ff7a4d5b796e1717b3ca4025"


def test_copy_steps_are_signed_permutations_of_the_seed_and_rank():
    steps = copy_steps(1, 64)
    assert len(steps) == COPIES - 1
    for p, signs in steps:
        assert sorted(p.tolist()) == list(range(64))
        assert signs.dtype == np.float64 and set(np.abs(signs).tolist()) == {1.0}
    raw = b"".join(p.astype("<i8").tobytes() + s.astype("<f8").tobytes() for p, s in steps)
    assert hashlib.sha256(raw).hexdigest() == COPY_STEPS_SHA256
    # drawn from the seed's SYMMETRY_TAG stream alone
    rng = substream(1, gaussian.SYMMETRY_TAG)
    assert np.array_equal(steps[0][0], rng.permutation(64))
    assert not np.array_equal(copy_steps(2, 64)[0][0], steps[0][0])


def _helpers_alive() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("cqlab-sampler-")]


@pytest.fixture
def helpers_started(monkeypatch):
    """The names of the helper threads that `draw_chunked` calls start, in
    start order; no helper may outlive the test."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        if thread.name.startswith("cqlab-sampler-"):
            started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    yield started
    assert _helpers_alive() == []


def _normals(rng, m):
    return rng.standard_normal((m, 2))


def _rows(rng, m):
    """A `[rows]` fill: the chunk's rows as a one-element list partial."""
    return [_normals(rng, m)]


def _drawn_rows(count: int, width: int, fill=_rows) -> np.ndarray:
    """The rows of a `[rows]` fill, in chunk order."""
    return np.concatenate(draw_chunked(5, count, fill, width).partial)


_THREE_CHUNKS = 3 * DEFAULT_CHUNK_SIZE


def test_draw_chunked_caps_workers_at_chunk_count(helpers_started):
    with sampling_workers(10 ** 6):
        capped = draw_chunked(5, _THREE_CHUNKS, _rows, 2)
    assert helpers_started == ["cqlab-sampler-1", "cqlab-sampler-2"]  # 3 chunks, 3 threads
    assert capped.chunk_count == 3
    assert np.array_equal(np.concatenate(capped.partial), _drawn_rows(_THREE_CHUNKS, 2))


def test_one_sampling_worker_starts_no_helper(helpers_started):
    draw_chunked(5, _THREE_CHUNKS, _rows, 2)
    with sampling_workers(2):
        with sampling_workers(1):
            draw_chunked(5, _THREE_CHUNKS, _rows, 2)
        assert helpers_started == []
        draw_chunked(5, _THREE_CHUNKS, _rows, 2)
    assert helpers_started == ["cqlab-sampler-1"]


def _blas_control():
    control = gaussian._blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this NumPy build")
    return control


@pytest.mark.parametrize("raises", [False, True])
def test_sampling_workers_restores_both_counts(raises):
    get, set_ = _blas_control()
    original = get()
    set_(2)  # a count other than the pinned 1, so a lost restore shows
    try:
        with contextlib.suppress(RuntimeError):
            with sampling_workers(3) as blas_threads:
                assert (blas_threads, get(), gaussian._WORKERS.get()) == (1, 1, 3)
                if raises:
                    raise RuntimeError("failed inside the block")
        assert (get(), gaussian._WORKERS.get()) == (2, 1)
        with sampling_workers(1) as blas_threads:
            assert blas_threads == get() == 2  # one worker leaves BLAS alone
    finally:
        set_(original)


def test_sampling_workers_rejects_fewer_than_one():
    with pytest.raises(ValueError, match="must be >= 1"):
        with sampling_workers(0):
            pass


def test_the_first_two_chunks_are_filled_at_once(helpers_started):
    # the first two fills meet at a barrier, so the helper starts before the
    # calling thread fills anything: no chunk's time is added in series to every call
    meet = threading.Barrier(2, timeout=10)
    threads = []

    def fill(rng, m):
        threads.append(threading.current_thread().name)
        if len(threads) <= 2:
            meet.wait()
        return _rows(rng, m)

    with sampling_workers(2):
        rows = _drawn_rows(_THREE_CHUNKS, 2, fill)
    assert sorted(threads[:2]) == sorted([threading.current_thread().name, "cqlab-sampler-1"])
    assert len(threads) == 3 and helpers_started == ["cqlab-sampler-1"]
    assert np.array_equal(rows, _drawn_rows(_THREE_CHUNKS, 2))


class _Failure(Exception):
    """What a fill raises on chunk args[0]."""


# the first raw output of substream(5, c), for the chunks of 12 * DEFAULT_CHUNK_SIZE rows of width 2
_CHUNK_OF = {substream(5, c).bit_generator.random_raw(): c for c in range(12)}


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("on_caller", [False, True], ids=["helper", "caller"])
def test_a_failing_chunk_raises_at_its_turn(workers, on_caller):
    # the fill raises on every chunk the calling thread (or a helper) fills,
    # and on the last chunk; the first `workers` fills meet at a barrier, so
    # each thread fills one of them and both kinds of thread fail
    caller, before = threading.current_thread(), threading.active_count()
    meet = threading.Barrier(workers, timeout=10)
    fills, raised = [], {}

    def fill(rng, m):
        c = _CHUNK_OF[rng.bit_generator.random_raw()]
        fills.append(c)
        if len(fills) <= workers:
            meet.wait()
        if (threading.current_thread() is caller) == on_caller or c == 11:
            raised[c] = _Failure(c)
            raise raised[c]
        return m

    with sampling_workers(workers), pytest.raises(_Failure) as drawn:
        draw_chunked(5, 12 * DEFAULT_CHUNK_SIZE, fill, 2)
    first = min(raised)
    assert drawn.value is raised[first]
    assert threading.active_count() == before and _helpers_alive() == []

    def fail_at(rng, m):  # the same failing chunks at one worker
        c = _CHUNK_OF[rng.bit_generator.random_raw()]
        if c in raised:
            raise _Failure(c)
        return m

    with pytest.raises(_Failure) as inline:
        draw_chunked(5, 12 * DEFAULT_CHUNK_SIZE, fail_at, 2)
    assert inline.value.args == (first,)


def test_draw_chunked_keeps_few_chunks_in_flight():
    # A chunk's partial here is its 4 kB of draws, summed elementwise when
    # merged.  No chunk more than `workers` past the one merged next is
    # claimed, so at most workers + 1 partials are held whatever the chunk
    # count; filling every chunk before merging would hold all 500.
    def fill(rng, m):
        return np.zeros(m, dtype=np.uint8)

    def peak(workers: int) -> int:
        tracemalloc.start()
        try:
            with sampling_workers(workers):
                draw_chunked(1, 500 * DEFAULT_CHUNK_SIZE, fill, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1), peak(2), peak(8)  # first-call allocations out of the way
    for workers in (2, 8):
        assert peak(workers) <= peak(1) + 64 * 1024


@pytest.mark.parametrize("width, rows", [(0, DEFAULT_CHUNK_SIZE), (1, DEFAULT_CHUNK_SIZE),
                                         (16, 2048), (17, 1927), (64, 512),
                                         (gaussian.BLOCK_VALUES + 1, 1)])
def test_a_chunk_is_one_fill_of_at_most_block_values_draws(width, rows):
    # chunk c is one fill of `rows` rows from substream(seed, c), the last
    # chunk holding what is left; sampling threads may make the calls in any order
    last = max(1, rows // 3)
    sizes = [rows] * 3 + [last]
    want = np.concatenate([substream(5, c).standard_normal(m) for c, m in enumerate(sizes)])
    for workers in (1, 2):
        calls = []

        def fill(rng, m):
            calls.append(m)
            return [rng.standard_normal(m)]

        with sampling_workers(workers):
            batch = draw_chunked(5, 3 * rows + last, fill, width)
        assert (calls if workers == 1 else sorted(calls, reverse=True)) == sizes
        assert batch.chunk_count == 4
        assert np.array_equal(np.concatenate(batch.partial), want)


def test_sample_mean_converges_to_zero():
    rho = GaussianState(np.diag([0.5, 0.5]))
    x = rho.sample(seed=8, count=100_000)
    se = x.std(axis=0, ddof=1) / math.sqrt(len(x))
    assert np.all(np.abs(x.mean(axis=0)) <= 4.0 * se)


def _above(x, c):
    """How many rows of x have a squared norm above c."""
    return np.count_nonzero(np.einsum("pi,pi->p", x, x) > c)


def test_chebyshev_bound_value():
    rho = GaussianState(np.eye(2) * 0.005)  # dispersion 0.01
    x = rho.sample(seed=3, count=2000)
    bound, empirical = chebyshev_tail(rho, 1.0, _above(x, 1.0), len(x))
    assert bound == pytest.approx(0.01, rel=1e-12)
    assert 0.0 <= empirical <= bound + 4.0 * math.sqrt(bound / len(x))


def test_chebyshev_bound_vanishes_for_large_threshold():
    rho = GaussianState(np.eye(2) * 0.005)
    x = rho.sample(seed=3, count=2000)
    bound, empirical = chebyshev_tail(rho, 1e12, _above(x, 1e12), len(x))
    assert bound <= 1e-13
    assert empirical == 0.0


def test_chebyshev_one_dimensional_tail_matches_normal():
    # oracle: for psi ~ N(0, alpha), P(psi^2 > alpha) = P(|z| > 1) = 2(1 - Phi(1))
    alpha = 0.04
    rho = GaussianState(np.array([[alpha]]))
    x = rho.sample(seed=15, count=200_000)
    bound, empirical = chebyshev_tail(rho, alpha, _above(x, alpha), len(x))
    assert bound == 1.0
    p_oracle = math.erfc(1.0 / math.sqrt(2.0))  # 0.31731...
    se = math.sqrt(p_oracle * (1.0 - p_oracle) / len(x))
    assert abs(empirical - p_oracle) <= 4.0 * se
    assert empirical <= bound


def test_pure_state_covariance_and_dispersion():
    rho = pure_state_measure(np.array([1.0, 0.0]), 0.05)
    assert np.array_equal(rho.covariance, np.diag([0.05, 0.0]))
    assert rho.dispersion() == 0.05


def test_pure_state_scaling_changes_dispersion():
    psi = np.array([0.6, 0.8])
    alpha = 0.02
    r1 = pure_state_measure(psi, alpha)
    r2 = pure_state_measure(2.0 * psi, alpha)
    assert r2.dispersion() == pytest.approx(4.0 * r1.dispersion(), rel=1e-12)
    assert not np.array_equal(r1.covariance, r2.covariance)


def test_pure_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        pure_state_measure(np.zeros(3), 0.1)


def test_pure_state_samples_are_exact_multiples_of_direction():
    psi = np.array([2.0, -1.0, 2.0]) / 3.0
    rho = pure_state_measure(psi, 0.04)
    x = rho.sample(seed=21, count=50_000)
    direction = rho.active_factor[:, 0]
    ok, _ = exact_span_coefficients(x, direction)
    assert np.all(ok)


def _span_reference(samples, direction):
    """The all-rows loop: every candidate tested on every row, first hit kept."""
    u = np.asarray(direction, dtype=np.float64)
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
        hit = np.all(cand[:, None] * u[None, :] == samples, axis=1) & ~ok
        coeffs[hit] = cand[hit]
        ok |= hit
    return ok, coeffs


def test_exact_span_coefficients_match_the_all_rows_loop():
    rng = np.random.default_rng(3)
    u = np.array([0.3, -0.7, 1.1])
    c = rng.standard_normal(4000) * 10.0 ** rng.uniform(-3, 3, 4000)
    rows = c[:, None] * u[None, :]
    rows[:40, 0] += 1e-3 * np.abs(rows[:40, 0])  # off the span
    rows[40:80, 2] = np.nextafter(rows[40:80, 2], np.inf)  # pivot off by one ulp
    ok, coeffs = exact_span_coefficients(rows, u)
    ref_ok, ref_coeffs = _span_reference(rows, u)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(coeffs, ref_coeffs, equal_nan=True)
    assert not ok[:40].any() and ok[80:].all()
    base = rows[:, 2] / u[2]
    steps = np.rint((coeffs[ok] - base[ok]) / np.spacing(np.abs(base[ok])))
    assert {-1.0, 0.0, 1.0} <= set(steps.tolist())  # some rows need a +-1 ulp candidate


def test_exact_span_coefficients_do_not_depend_on_the_row_layout():
    # products near the subnormal range keep few bits, so some rows need a
    # +-1 or +-2 ulp candidate and some are reproduced by none; row 0 is
    # moved off the span
    rng = np.random.default_rng(4)
    u = np.array([1.0, -0.7, 0.3, 0.0]) * 1e-305
    rows = (rng.standard_normal(4000) * 1e-3)[:, None] * u[None, :]
    rows[0, 1] *= 1.5
    ok, coeffs = exact_span_coefficients(rows, u)
    columns = np.ascontiguousarray(rows.T)  # (dim, N), handed over as its transpose
    ok_t, coeffs_t = exact_span_coefficients(columns.T, u)
    assert np.array_equal(ok, ok_t)
    assert np.array_equal(coeffs, coeffs_t)
    ref_ok, ref_coeffs = _span_reference(rows, u)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(coeffs, ref_coeffs)
    assert not ok[0] and 0 < np.count_nonzero(~ok) < 400
    base = rows[:, 0] / u[0]
    steps = np.rint((coeffs[ok] - base[ok]) / np.spacing(np.abs(base[ok])))
    assert set(steps.tolist()) == {-2.0, -1.0, 0.0, 1.0, 2.0}


def test_exact_span_coefficients_try_the_guess_first():
    # rows the guess reproduces keep it; every other row gets the search
    # the all-rows loop makes
    rng = np.random.default_rng(5)
    u = np.array([0.3, -0.7, 1.1])
    c = rng.standard_normal(4000) * 10.0 ** rng.uniform(-3, 3, 4000)
    rows = c[:, None] * u[None, :]
    rows[:40, 0] += 1e-3 * np.abs(rows[:40, 0])  # off the span
    guess = c.copy()
    guess[40:400] = np.nextafter(guess[40:400], np.inf)  # a ulp off: some rows still hit
    guess[400:500] *= -1.0
    ok, coeffs = exact_span_coefficients(rows, u, guess=guess)
    hits = np.all(guess[:, None] * u[None, :] == rows, axis=1)
    ref_ok, ref_coeffs = _span_reference(rows, u)
    assert np.array_equal(ok, ref_ok | hits)
    assert np.array_equal(coeffs, np.where(hits, guess, ref_coeffs))
    assert not ok[:40].any() and ok[40:].all()
    assert hits[40:400].any() and not hits[40:500].all()
    ok, coeffs = exact_span_coefficients(rows, u, guess=c)  # the coefficients that made the rows
    assert np.array_equal(ok, ref_ok) and np.array_equal(coeffs[40:], c[40:])


@pytest.mark.parametrize("rank", [0, 1, 32])
def test_white_draws_rank_normals_per_row(rank):
    weights = np.zeros(64)
    weights[:rank] = np.arange(1.0, rank + 1.0)
    rho = GaussianState(np.diag(weights))
    assert rho.white(substream(2, 0), 100).shape == (100, rank)


def test_a_rank_one_chunk_consumes_one_normal_per_row():
    rho = pure_state_measure(np.array([0.6, 0.0, 0.8]), 0.1)
    rng, reference = substream(8, 0), substream(8, 0)
    z = rho.white(rng, 1000)
    assert np.array_equal(z[:, 0], reference.standard_normal(1000))
    assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and stderr of one held 1-D array: the one-partial case of `Moments`."""
    [pair] = Moments.of(values).mean_stderr()
    return pair


def test_mean_stderr_survives_large_finite_values():
    # squaring deviations of 1e200 overflows; the stderr itself fits a double
    v = np.array([1e200, -1e200, 3e200, 2e200])
    mean, stderr = mean_stderr(v)  # a RuntimeWarning would fail under the "error" filter
    assert mean == np.mean(v)
    assert math.isfinite(stderr)
    assert stderr == pytest.approx(1e200 * mean_stderr(v / 1e200)[1], rel=1e-15)
    assert stderr == pytest.approx(8.539125638299665e199, rel=1e-15)


def test_mean_stderr_survives_a_sum_that_overflows():
    # the running sum passes the largest double; the mean 6.25e307 fits one
    v = np.array([1e308, 1e308, -1e308, 1.5e308])
    mean, stderr = mean_stderr(v)  # a RuntimeWarning would fail under the "error" filter
    assert mean == pytest.approx(6.25e307, rel=1e-15)
    assert stderr == pytest.approx(1.5e308 * mean_stderr(v / 1.5e308)[1], rel=1e-15)


@pytest.mark.parametrize("exponent", [-700, -1000])
def test_mean_stderr_survives_values_whose_squares_underflow(exponent):
    # a power-of-two scaling is exact, so both statistics scale by it bit for bit
    v = np.random.default_rng(6).standard_normal(1001)
    mean, stderr = mean_stderr(np.ldexp(v, exponent))
    assert stderr > 0.0
    assert (mean, stderr) == tuple(math.ldexp(x, exponent) for x in mean_stderr(v))


def test_mean_stderr_keeps_its_bits_where_finite():
    v = np.random.default_rng(5).standard_normal(1001) * 1e150
    assert mean_stderr(v)[1] == float(np.std(v, ddof=1) / math.sqrt(v.size))



def _exact_mean_stderr(values) -> tuple[float, float]:
    """Mean and stderr (ddof=1) of the doubles `values`, each rounded once
    from exact rational arithmetic (the stderr twice: its square, then the
    square root)."""
    xs = [Fraction(x) for x in values.tolist()]
    n = len(xs)
    s1 = sum(xs)
    q = (sum(x * x for x in xs) - s1 * s1 / n) / ((n - 1) * n)  # the stderr squared
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return float(s1 / n), math.ldexp(math.sqrt(float(q / Fraction(4) ** e)), e)


def _assert_within_ulps(got, want, ulps):
    assert abs(got - want) <= ulps * math.ulp(want), (got, want, (got - want) / math.ulp(want))


def _merge_chunks(chunks) -> list[tuple[float, float]]:
    return merged(Moments.of(np.asarray(c, dtype=np.float64)) for c in chunks).mean_stderr()


@pytest.mark.parametrize("sizes", [
    (1, DEFAULT_CHUNK_SIZE + 17),
    (DEFAULT_CHUNK_SIZE + 17, 1, 3 * DEFAULT_CHUNK_SIZE + 17),
    (3 * DEFAULT_CHUNK_SIZE + 17, DEFAULT_CHUNK_SIZE, 1, DEFAULT_CHUNK_SIZE + 17, 2),
])
def test_merged_moments_match_exact_arithmetic(sizes):
    rng = np.random.default_rng(len(sizes))
    n = sum(sizes)
    values = np.column_stack([rng.standard_normal(n) + 3.0, rng.standard_exponential(n) * 1e-3])
    got = _merge_chunks(np.split(values, np.cumsum(sizes)[:-1]))
    for column, (mean, stderr) in zip(values.T, got):
        want_mean, want_stderr = _exact_mean_stderr(column)
        _assert_within_ulps(mean, want_mean, 2)
        _assert_within_ulps(stderr, want_stderr, 2)


def _offset_normals(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n) + 3.0


# mean_stderr's edge cases, split into chunks whose scale exponents differ
_EDGE_CHUNKS = {
    "near-2^600": [np.ldexp(_offset_normals(1, 1001), 600), np.ldexp(_offset_normals(2, 5), 610),
                   np.ldexp(_offset_normals(3, 300), 590)],
    "near-2^-600": [np.ldexp(_offset_normals(1, 1001), -600), np.ldexp(_offset_normals(2, 5), -590),
                    np.ldexp(_offset_normals(3, 300), -610)],
    # the running sum passes the largest double; the mean fits one
    "sum-overflows": [[1e308, 1e308], [-1e308, 1.5e308], [1e300]],
    # squared deviations underflow: chunks at 2^-700 and 2^-1000
    "squares-underflow": [np.ldexp(_offset_normals(4, 1001), -700),
                          np.ldexp(_offset_normals(5, 1001), -1000)],
    # one chunk inside the unscaled window [2^-400, 2^400], one above it
    "window-edge": [np.ldexp(_offset_normals(6, 1001), 396), np.ldexp(_offset_normals(7, 99), 402)],
    # an all-zero chunk sets no scale, so the tiny chunk keeps its spread
    "zero-chunk": [np.zeros(DEFAULT_CHUNK_SIZE), np.ldexp(_offset_normals(8, 1001), -700)],
}


@pytest.mark.parametrize("case", list(_EDGE_CHUNKS))
def test_merged_moments_survive_chunks_of_different_scales(case):
    chunks = _EDGE_CHUNKS[case]
    [(mean, stderr)] = _merge_chunks(chunks)  # a RuntimeWarning would fail under the "error" filter
    want_mean, want_stderr = _exact_mean_stderr(np.concatenate(chunks))
    assert stderr > 0.0
    _assert_within_ulps(mean, want_mean, 2)
    _assert_within_ulps(stderr, want_stderr, 2)


class _Tree(str):
    """A partial that records the order of its merges."""

    def __add__(self, other):
        return _Tree(f"({self}{other})")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40))
def test_merged_lists_keep_their_order(n):
    # a `[rows]` fill keeps chunk order: every merge takes the earlier partial on its left
    assert merged([i] for i in range(n)) == list(range(n))


def test_merged_adds_like_a_binary_counter():
    assert merged(map(_Tree, "a")) == "a"
    assert merged(map(_Tree, "abcdefg")) == "(((ab)(cd))((ef)g))"
    # tuples merge entrywise
    assert merged([(_Tree("a"), 1), (_Tree("b"), 2), (_Tree("c"), 4)]) == ("((ab)c)", 7)


def _chunk_name(rng, m):
    """A partial that names its chunk by the first output of its stream."""
    return _Tree(f"[{rng.bit_generator.random_raw():x}]")


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("width, chunks", [(64, 8), (64, 19), (40, 11), (17, 5), (16, 3),
                                           (8, 3)])
def test_threads_keep_the_chunk_by_chunk_merge_tree(width, chunks, workers):
    # chunks of 512 rows at width 64, 819 at 40, 1927 at 17, 2048 at 16 and
    # 4096 at 8, the last one a single row: the merge tree is the one of
    # the chunks merged one by one, whichever thread fills each chunk
    rows = min(DEFAULT_CHUNK_SIZE, gaussian.BLOCK_VALUES // width)
    count = (chunks - 1) * rows + 1
    want = merged(_chunk_name(substream(5, c), 0) for c in range(chunks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a lost claim or result would show
    try:
        with sampling_workers(workers):
            batch = draw_chunked(5, count, _chunk_name, width)
            drawn = _drawn_rows(count, width)
    finally:
        sys.setswitchinterval(interval)
    assert batch.chunk_count == chunks and batch.partial == want
    assert np.array_equal(drawn, np.concatenate(
        [_normals(substream(5, c), min(rows, count - c * rows)) for c in range(chunks)]))


def test_draw_chunked_keeps_a_partial_and_no_rows():
    count = 13 * DEFAULT_CHUNK_SIZE + 17  # 14 chunks: merges of 8, 4 and 2 are left on the stack

    def fill(rng, m):
        return Moments.of(_normals(rng, m))

    rows = _drawn_rows(count, 2)
    want = merged(Moments.of(rows[c:c + DEFAULT_CHUNK_SIZE])
                  for c in range(0, count, DEFAULT_CHUNK_SIZE)).mean_stderr()
    for workers in (1, 2, 8):
        with sampling_workers(workers):
            batch = draw_chunked(5, count, fill, 2)
        assert (batch.count, batch.chunk_count, batch.samples.nbytes) == (count, 14, 0)
        assert batch.partial.mean_stderr() == want
