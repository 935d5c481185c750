"""Zero-mean Gaussian measures on the truncated space.

A state is determined by its covariance operator B.  Its dispersion is
Tr B, the mean squared field norm.  Sampling factors B through its
spectral decomposition so rank-deficient covariances (pure states) work
without pivoting, and draws come from SFC64 substreams, one per chunk, so
batches are bit-reproducible regardless of how many workers fill them.  The
substreams are SeedSequence children: independent with overwhelming
probability rather than by construction (see `substream`).
Every Monte-Carlo statistic of the package streams: a chunk is one fill of
at most `BLOCK_VALUES` draws, and `draw_chunked` reduces it to a small
partial as it is drawn, the (count, mean, M2) of each value column
(`Moments`) or exact counts, and merges the partials in chunk order on a
binary-counter stack, so no caller holds a draw or a per-sample value, and
a statistic of k columns over `chunks` chunks holds
O(k * log chunks + workers * BLOCK_VALUES) doubles whatever the sample count.
Chunks are filled inline at one worker; at n workers the calling thread and
n - 1 helper threads, which the call starts and joins, each take the next
unfilled chunk.
The number of threads that fill chunks is a resource, not an input:
`sampling_workers(n)` alone sets it, and it moves no result bit.
A Gaussian draw is F_a z with z ~ N(0, I_rank), a law that every signed
permutation Q of z's coordinates keeps, so f(F_a Q z) is distributed as
f(F_a z).  `mc_average` reads that at rank >= 2 * COPIES: each white draw
is evaluated at z and at COPIES - 1 signed permutations of it, and the mean
of those copies is one draw's value.  `mc_samples` counts evaluations, so N
of them take ceil(N / COPIES) draws, fewer normal fills.  The copies are
variables, f pulled back through each signed permutation once per call, so
a chunk evaluates them all on its one draw; only a variable with a dense
form term, whose pullback holds a new tensor per copy, gathers the copies
in every chunk instead.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, InvalidCovarianceError
from .functionals import Functional, holds_dense_term
from .hilbert import as_vector, outer_product, require_symmetric, spectral_decompose

DEFAULT_CHUNK_SIZE = 4096
# the most draws one chunk holds, 256 KB of doubles: a chunk's white normals
# and their GEMM product are two such arrays, and two freed blocks of 512 KB
# sat at glibc's dynamic trim threshold (about twice the largest freed mmapped
# block, mallopt(3)), so each chunk gave its pages back to the kernel and
# faulted them in again.  A fill of width values per row takes chunks of
# BLOCK_VALUES // width rows above width 8.  It fixes the stream layout at
# those widths, so a new value moves their bits.
BLOCK_VALUES = 1 << 15

# the worker count that `draw_chunked` reads, set only by `sampling_workers`;
# a context variable, so a block opened in one thread leaves other threads at 1
_WORKERS = contextvars.ContextVar("sampling_workers", default=1)

# Round-off clip: eigenvalues of B within EIG_CLIP_REL * Tr B of zero are
# treated as exact zeros (eigh of a rank-deficient matrix emits spurious
# values at this scale on both sides); anything below the negative clip
# rejects the covariance as indefinite.
EIG_CLIP_REL = 1e-12

# the scale exponent of an all-zero `Moments` column: below frexp's exponent
# of the smallest subnormal, -1073
_ZERO_EXPONENT = -1100


@dataclass(frozen=True)
class SampleBatch:
    """What one `draw_chunked` call drew: `count` rows in `chunk_count`
    chunks, one fill each, and `partial`, the chunk-order merge of the
    fill's per-chunk partials."""

    count: int
    chunk_count: int
    partial: object
    # no rows are kept; bench/tracer.py reads samples.nbytes until its
    # counters are retargeted (ROADMAP item 12)
    samples = np.empty(0)


def substream(seed: int, tag: int) -> np.random.Generator:
    """The SFC64 stream of (seed mod 2^64, tag): child `tag` of
    `SeedSequence(seed mod 2^64)`, as `spawn` would make it.  Every seeded
    draw in the package comes from one of these.

    The seed fills the entropy pool zero-padded before the tag's words, so
    distinct (seed mod 2^64, tag) pairs give distinct SeedSequence inputs;
    a list entropy [seed, tag] would not (NumPy joins each int's 32-bit
    words, so (0, 1 + 5 * 2^32) and (2^32, 5) would build one state).  The
    inputs are hashed into a 128-bit pool that seeds a 256-bit SFC64
    state, so distinct pairs give independent streams with overwhelming
    probability, not by construction as distinct Philox keys would; and
    SFC64 is not counter-based, so no stream can jump into another.
    Neither is needed: every chunk and every builder gets its own generator.
    """
    entropy = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(tag,))
    return np.random.Generator(np.random.SFC64(entropy))


# The reserved stream tags: those of the seeded operator and state builders
# (`experiments.build_operator`, `build_state`) and of the experiments that
# draw their own random state, operators or forms.  `draw_chunked` tags chunk
# c with c, so no chunk index reaches these, and a builder or experiment
# seed equal to a run seed never reuses a stream of that run's draws.  A tag
# is a SeedSequence spawn key (`substream`): distinct (seed, tag) pairs give
# distinct SFC64 seeds by construction and independent streams with
# overwhelming probability, which is all a builder's or chunk's own
# generator needs.
OPERATOR_TAG = 2 ** 64 - 1
STATE_TAG = 2 ** 64 - 2
FINITE_QM_TAG = 2 ** 64 - 3
HIGHER_ORDER_TAG = 2 ** 64 - 4
MOMENTS_TAG = 2 ** 64 - 5
# the stream of `mc_average`'s copy steps (`copy_steps`)
SYMMETRY_TAG = 2 ** 64 - 6

# The white draws of a `GaussianState` of rank r >= 2 * COPIES are each
# evaluated as COPIES signed-permutation copies (`mc_average`).  Below that
# rank a copy is too often near another: at k = 4 copies the stderr of a
# fixed count of evaluations rose 1.43-1.59x at rank 2 and 1.11-1.26x at rank
# 4 for a time ratio of 0.53-0.75, a net loss at rank 2, and 1.00-1.21x at
# ranks 8-64 for a time ratio of 0.48-0.95 (cos, sin, quadratic and dense
# order-4 families, on a 2-core x86 VM).
COPIES = 4


def copy_steps(seed: int, rank: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The COPIES - 1 steps (p_j, s_j) that take copy j - 1 of `mc_average`'s
    white draws z to copy j, `z[:, p_j] * s_j`: p_j a permutation of the
    rank columns and s_j a vector of rank signs +-1.0, drawn in turn from
    `substream(seed, SYMMETRY_TAG)`, so they depend on the seed and the rank
    only."""
    rng = substream(seed, SYMMETRY_TAG)
    return [(rng.permutation(rank), 1.0 - 2.0 * rng.integers(0, 2, rank))
            for _ in range(COPIES - 1)]


def _copy_maps(seed: int, rank: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(p, s) of copies 1 to COPIES - 1: copy j of z is `z[:, p] * s`, the
    first j of `copy_steps(seed, rank)` composed, bit for bit."""
    maps, p, s = [], np.arange(rank), np.ones(rank)
    for step, signs in copy_steps(seed, rank):
        p, s = p[step], s[step] * signs
        maps.append((p, s))
    return maps


@dataclass(frozen=True)
class Moments:
    """Count, mean and M2 (the sum of squared deviations from the mean) of
    each of k columns of values, column i held in units of 2^exponent[i].

    Squared deviations overflow for values above about 1e154 and underflow
    for values below about 1e-154.  So `of` scales a column whose largest
    magnitude lies outside [2^-400, 2^400] by the power of two that brings
    it into [0.5, 1), and leaves a column inside that window as it is; a
    power-of-two scaling is exact.  An all-zero column takes an exponent
    below that of any nonzero double, so it never sets the scale of a merge.
    `+` is the pairwise update of Chan, Golub & LeVeque (1979), taken at the
    larger exponent of each column: the other side's mean is scaled down by
    the exponent gap and its M2 by twice the gap, so no deviation is squared
    outside the window.  A partial is a few numbers per column, merged in
    Python floats, whose IEEE arithmetic gives NumPy's bits: a merge costs
    microseconds, as does a chunk of a small state.
    """

    count: int
    mean: tuple[float, ...]
    m2: tuple[float, ...]
    exponent: tuple[int, ...]

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """The partial of m values, shape (m,), or of m rows of k columns,
        shape (m, k).  Each column is reduced as a contiguous array, so the
        mean and M2 are pairwise sums, the bits `np.mean` and `np.std` give."""
        cols = np.ascontiguousarray(values.T if values.ndim == 2 else values[None])
        exponent = tuple(map(_scale_exponent, cols.max(axis=1).tolist(),
                             cols.min(axis=1).tolist()))
        if any(exponent):
            cols = np.ldexp(cols, np.negative(exponent)[:, None])
        n = cols.shape[1]
        mean = np.add.reduce(cols, axis=1) / n
        dev = cols - mean[:, None]
        return cls(n, tuple(mean.tolist()), tuple(np.add.reduce(dev * dev, axis=1).tolist()),
                   exponent)

    def __add__(self, other: "Moments") -> "Moments":
        count = self.count + other.count
        weight_b, weight_ab = other.count / count, self.count * other.count / count
        mean, m2, exponent = [], [], []
        for mean_a, m2_a, e_a, mean_b, m2_b, e_b in zip(self.mean, self.m2, self.exponent,
                                                        other.mean, other.m2, other.exponent):
            e = max(e_a, e_b)
            mean_a, mean_b = math.ldexp(mean_a, e_a - e), math.ldexp(mean_b, e_b - e)
            delta = mean_b - mean_a
            mean.append(mean_a + delta * weight_b)
            m2.append(math.ldexp(m2_a, 2 * (e_a - e)) + math.ldexp(m2_b, 2 * (e_b - e))
                      + delta * delta * weight_ab)
            exponent.append(e)
        return Moments(count, tuple(mean), tuple(m2), tuple(exponent))

    def mean_stderr(self) -> list[tuple[float, float]]:
        """(sample mean, its standard error with ddof=1) of each column, in
        the values' own units."""
        if self.count < 2:
            raise ValueError(f"need at least 2 samples, got {self.count}")
        stderr = np.sqrt(np.array(self.m2) / (self.count - 1)) / math.sqrt(self.count)
        with np.errstate(over="ignore"):  # a statistic beyond the largest double is inf
            return list(zip(np.ldexp(self.mean, self.exponent).tolist(),
                            np.ldexp(stderr, self.exponent).tolist()))


def _scale_exponent(high: float, low: float) -> int:
    """The `Moments` exponent of a column whose largest and smallest values
    are high and low."""
    top = max(high, -low)
    if top == 0.0:
        return _ZERO_EXPONENT
    if not math.isfinite(top) or 2.0 ** -400 <= top <= 2.0 ** 400:
        return 0
    return math.frexp(top)[1]


def _merge(a, b):
    return tuple(map(_merge, a, b)) if isinstance(a, tuple) else a + b


def merged(partials):
    """The chunk-order merge of `partials` as a binary counter adds them:
    each partial is merged with each merge before it of as many partials,
    and the merges left at the end are merged from the last one back.  So
    at most log2(n) + 1 partials are held, every merge takes an earlier
    partial on its left, and the tree depends on the partial count alone.
    A partial is anything `+` merges, or a tuple of such, merged entrywise."""
    stack = []  # (partials merged, partial), sizes strictly decreasing
    for partial in partials:
        size = 1
        while stack and stack[-1][0] == size:
            partial = _merge(stack.pop()[1], partial)
            size *= 2
        stack.append((size, partial))
    total = stack.pop()[1]
    while stack:
        total = _merge(stack.pop()[1], total)
    return total


def draw_chunked(seed: int, count: int, fill, width: int) -> SampleBatch:
    """Draw `count` rows of `width` values in chunks of
    min(DEFAULT_CHUNK_SIZE, BLOCK_VALUES // width) rows, at least one, and
    merge one partial per chunk.

    `fill(rng, m)` uses only `rng` and returns a partial of the chunk's m
    draws: a `Moments`, a count, a list (merged by concatenation, so a
    `[rows]` fill keeps its rows in chunk order) or a tuple of these.
    Chunk c is one `fill` call on the SFC64 stream `substream(seed, c)`, so
    its values depend on (seed, c) and its row count alone, never on how a
    fill might split it.  The partials are merged in chunk order as they
    come (`merged`), so a call holds O(log chunks) partials and the result
    is independent of `sampling_workers` and of scheduling order.  One
    worker fills the chunks inline; at n workers the calling thread and
    n - 1 helper threads each take the next unfilled chunk (`_in_order`).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    size = min(DEFAULT_CHUNK_SIZE, max(1, BLOCK_VALUES // max(width, 1)))
    n_chunks = (count + size - 1) // size

    def fill_chunk(c: int):
        return fill(substream(seed, c), min(size, count - c * size))

    with contextlib.closing(_in_order(fill_chunk, range(n_chunks), _WORKERS.get())) as parts:
        return SampleBatch(count, n_chunks, merged(parts))


def _in_order(func, items: range, workers: int):
    """func(item) for each of `items`, in order.  One worker maps them
    inline.  At more, the calling thread is worker 0 beside
    min(workers, len(items)) - 1 helper threads, all started before any
    call: every thread calls func on the next unclaimed item, and the caller
    yields the results in item order, raising an item's exception at its
    turn.  No item more than `workers` past the one yielded next is claimed,
    so at most workers + 1 results are held; the one item of slack lets a
    thread that finishes before the item yielded next go on to another.
    Every exit, the generator closed early included, stops and joins the
    helpers, so no thread outlives the call."""
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(func, items)
        return
    done = {}  # index: (exception or None, result) of each item called and not yet yielded
    claimed = head = 0  # the next index to claim, and the index yielded next
    stop = False
    turn = threading.Condition()

    def claim():
        """Under `turn`: the next index to call, or None while none may be claimed."""
        nonlocal claimed
        if stop or claimed == min(len(items), head + workers + 1):
            return None
        claimed += 1
        return claimed - 1

    def work(ready, catch) -> None:
        """Call claimed items on this thread until ready() holds, keeping a
        call's exception of type `catch` as its result."""
        while True:
            with turn:
                i = None
                while not ready() and (i := claim()) is None:
                    turn.wait()
            if i is None:
                return
            try:
                out = None, func(items[i])
            except catch as exc:
                out = exc, None
            with turn:
                done[i] = out
                turn.notify_all()
            del out  # a waiting thread holds no result

    def exhausted() -> bool:
        return stop or claimed == len(items)

    helpers = []
    try:
        for n in range(1, workers):
            # a helper keeps whatever its calls raise, for the caller to raise
            thread = threading.Thread(target=work, args=(exhausted, BaseException),
                                      name=f"cqlab-sampler-{n}")
            thread.start()
            helpers.append(thread)
        for head in range(len(items)):
            with turn:
                turn.notify_all()  # the window moved on
            work(lambda: head in done, Exception)
            with turn:
                exc, result = done.pop(head)
            if exc is not None:
                raise exc
            yield result
    finally:
        with turn:
            stop = True
            turn.notify_all()
        for thread in helpers:
            thread.join()


# (get, set) thread-count functions of the OpenBLAS builds that NumPy wheels
# bundle in numpy.libs: scipy-openblas (NumPy 2) and openblas64_ (NumPy 1)
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.cache
def _blas_thread_control():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, or None.  RTLD_NOLOAD opens only a library already in the
    process, so the lookup loads nothing."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=noload | os.RTLD_LAZY)
        except OSError:  # not loaded in this process
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def sampling_workers(n: int):
    """Fill `draw_chunked` chunks with n threads inside the block (1 outside
    any block), the calling thread included: each call at n > 1 starts
    n - 1 helper threads, fewer when it has fewer than n chunks, and joins
    them before it returns.  Hold BLAS to one thread while n > 1.

    A worker's per-chunk GEMM is large enough for OpenBLAS to start its own
    thread pool, so several workers plus their BLAS threads would contend
    for the same cores; the pin helps around a whole run, not around each
    `draw_chunked` call.  With n = 1 BLAS keeps its threads for the
    exact-form contractions.  Yields the BLAS thread count in force inside
    the block, or None when no known BLAS is found.  Both counts come back
    on exit, also when the block raises.  OpenBLAS splits a GEMM between its
    threads by output blocks, so the pin moves no result bit either.
    """
    if n < 1:
        raise ValueError(f"sampling workers must be >= 1, got {n}")
    control = _blas_thread_control()
    before = control[0]() if control else None
    pinned = control is not None and n > 1
    if pinned:
        control[1](1)
    token = _WORKERS.set(n)
    try:
        yield 1 if pinned else before
    finally:
        _WORKERS.reset(token)
        if pinned:
            control[1](before)


class GaussianState:
    """Zero-mean Gaussian measure with covariance B (symmetric PSD).

    The covariance is checked and factored once, here.  With
    clip = EIG_CLIP_REL * max(Tr B, 0), B is rejected when an eigenvalue
    lies below -clip, eigenvalues below +clip are set to zero, and the
    spectral factor F_a of the remaining (active) eigenvalues, F_a F_a^T = B,
    is the state's one factor: draws, pullbacks and closed forms read it.
    Membership in the dispersion-alpha class is not a property of the state;
    `correspondence.t_state` decides it.
    """

    def __init__(self, covariance):
        b = np.asarray(covariance, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise InvalidCovarianceError("covariance has non-finite entries")
        b = require_symmetric(b)
        self.covariance = b
        self.dim = b.shape[0]
        dec = spectral_decompose(b)
        clip = EIG_CLIP_REL * max(float(np.trace(b)), 0.0)
        min_eig = float(dec.eigenvalues.min())
        if min_eig < -clip:
            raise InvalidCovarianceError(
                f"covariance is indefinite: min eigenvalue {min_eig:.3e} below clip {-clip:.3e}")
        # eigenvalues descend, so the columns of nonzero eigenvalue lead: F_a is dim x rank
        eigenvalues = np.where(dec.eigenvalues < clip, 0.0, dec.eigenvalues)
        rank = np.count_nonzero(eigenvalues)
        self.active_factor = (dec.eigenvectors * np.sqrt(eigenvalues))[:, :rank]

    def dispersion(self) -> float:
        return float(np.trace(self.covariance))

    def white(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """The m x rank standard normals z behind `fill(rng, m)`, which is
        z F_a^T.  Each sample draws rank normals, one per active eigenvalue,
        so a full-rank state draws dim and a pure state one; the stream
        layout therefore depends on the numerical rank, and a state whose
        clipped rank changes draws a different stream."""
        return rng.standard_normal((m, self.active_factor.shape[1]))

    def fill(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m rows drawn from N(0, B) using only `rng`."""
        return self.white(rng, m) @ self.active_factor.T

    def whitened(self, f) -> tuple:
        """(f o F_a, `white`): the variable and the draws whose values are
        f at the rows of `fill`, up to rounding, with no row x = z F_a^T
        formed: (F_a z)^T A (F_a z) = z^T (F_a^T A F_a) z."""
        return f.pullback(self.active_factor), self.white

    def sample(self, seed: int, count: int) -> np.ndarray:
        """`count` rows drawn from N(0, B), all held at once: the chunks'
        rows, each a one-element list partial, in chunk order.  The
        package's own statistics reduce each chunk to a partial instead."""
        rows = draw_chunked(seed, count, lambda rng, m: [self.fill(rng, m)], self.dim).partial
        return np.concatenate(rows)


def mc_average(f: Functional, state, n_samples: int, seed: int,
               ratios: Sequence[float] = (1.0,)) -> list[tuple[float, float]]:
    """Sample mean and standard error of f over a deterministic stream of
    draws, one (mean, stderr) pair per dispersion ratio.

    Each chunk of draws is evaluated as it is drawn and reduced to a
    `Moments` partial while its values are in cache; `draw_chunked` merges
    the partials in chunk order.  So memory is
    O(k * log chunks + workers * BLOCK_VALUES) for k ratios, with workers
    the `gaussian.sampling_workers` count, and no per-sample value is kept.
    Every Monte-Carlo statistic of the package streams this way.  With
    (g, draw) = `state.whitened(f)`, a chunk of m rows of width `g.dim` is
    evaluated as `g.eval_batch(draw(rng, m), ratios)` on its own stream, and
    the result is the merge of those chunks' partials, whatever the worker
    count.  For a Gaussian state g is f pulled back by the active factor
    F_a, of width rank, and draw hands over the white normals z behind
    `state.fill`: f(F_a z) is read as (f o F_a)(z), one GEMM per chunk
    rather than two, and no row F_a z is formed.  The draws are the state's
    own, not those of an eigenbasis of f, so the mean stays an independent
    check of the closed form.

    With dispersion `ratios` = (r_1, ..., r_k) the same draws serve k
    averages: each chunk is evaluated once by `g.eval_batch(z, ratios)`,
    whose column i holds f(sqrt(r_i) x).  A draw x of N(0, B) scaled by
    sqrt(r) is a draw of N(0, r B), so this averages f over the states
    r_1 B, ..., r_k B with common random numbers: each average is unbiased,
    but their errors are correlated.

    On a `GaussianState` of rank r >= 2 * COPIES, n_samples counts
    evaluations, not draws: the call draws ceil(n_samples / COPIES) white
    rows and evaluates each chunk on z and on COPIES - 1 copies, copy j
    being copy j - 1 with its columns permuted and their signs flipped,
    `z[:, p_j] * s_j` (`copy_steps`, one draw per call from
    `substream(seed, SYMMETRY_TAG)`).  N(0, I_r) is invariant under every
    signed permutation, so each copy has the law of z and the mean of the
    copies is an unbiased value of one draw.  The `Moments` partial reduces
    that per-draw mean, so the stderr is the spread of ceil(n_samples /
    COPIES) independent draws.  When the copies of a draw are weakly
    correlated the stderr is near that of n_samples draws, for about half
    the time; a variable invariant under every signed permutation (A = I on
    an isotropic state) has equal copies and gets twice the stderr of
    n_samples draws in about half the time.  A stderr needs two draws, so
    n_samples must exceed COPIES there.  At a lower rank, and on any other
    state, each draw is evaluated once.

    Copy j of z is z Q_j, Q_j the signed permutation of the first j steps,
    so g at the copy is the variable g_j = `g.pullback(Q_j^T)` at z: the
    call builds the COPIES - 1 variables once, their operators g's entries
    permuted and sign-flipped, exactly, and a chunk evaluates g and each
    g_j on its one array of normals, with no gather or flip.  Pulling back
    a dense form term contracts its whole tensor and packs new weights for
    each copy (`functionals.holds_dense_term`), which took CI's order-4
    dim-64 `moments-check` past its 1 GiB limit at 8 threads.  So a
    variable with one keeps g, and a chunk gathers and flips each copy,
    `z[:, p] * s`.
    """
    g, draw = state.whitened(f)
    copies = COPIES if isinstance(state, GaussianState) and g.dim >= 2 * COPIES else 1
    maps = _copy_maps(seed, g.dim) if copies > 1 else []
    gather = holds_dense_term(g)
    # z @ Q_j = z[:, p] * signs, so Q_j is the identity's columns p flipped
    variables = [g if gather else g.pullback((np.eye(g.dim)[:, p] * signs).T)
                 for p, signs in maps]

    def fill(rng: np.random.Generator, m: int) -> Moments:
        z = draw(rng, m)
        values = g.eval_batch(z, ratios)
        for variable, (p, signs) in zip(variables, maps):
            values += variable.eval_batch(z[:, p] * signs if gather else z, ratios)
        if copies > 1:
            values /= copies
        return Moments.of(values)

    return draw_chunked(seed, -(-n_samples // copies), fill, g.dim).partial.mean_stderr()


def pure_state_measure(psi, alpha: float) -> GaussianState:
    """Rank-1 Gaussian mixture concentrated on span{psi}, covariance alpha psi (x) psi."""
    v = as_vector(psi)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not float(v @ v) > 0.0:
        raise DegenerateStateError("pure-state direction must be a nonzero vector")
    return GaussianState(alpha * outer_product(v))


def chebyshev_tail(rho: GaussianState, c: float, above: int, count: int) -> tuple[float, float]:
    """Markov-type tail bound min(1, Tr B / C) vs the observed fraction
    above / count, where `above` of `count` draws from rho have a squared
    norm ||psi||^2 above C."""
    if not c > 0.0:
        raise ValueError(f"C must be positive, got {c}")
    bound = min(1.0, rho.dispersion() / c)
    return bound, above / count


def exact_span_coefficients(samples: np.ndarray, direction,
                            guess=None) -> tuple[np.ndarray, np.ndarray]:
    """Exhibit float coefficients c with samples[i] == c[i] * direction elementwise.

    Returns (ok, coeffs).  ok[i] is True when some double c reproduces row i
    bit-for-bit under IEEE multiplication, which is the strongest form of
    "lies in span{direction}" available in floating point.  The first
    candidate is `guess[i]` when a guess is given (for draws c * direction,
    the c that made them), else the per-row division estimate; on the rows
    it does not reproduce, the division estimate and its +1, -1, +2 and -2
    ulp neighbours follow, and a row keeps the first candidate that does.
    A row no candidate reproduces keeps the division estimate.  Every check
    reduces along axis 0 of samples.T, so rows handed over as the transpose
    of a C-ordered (dim, N) array are compared along contiguous memory; the
    result does not depend on the layout.
    """
    u = as_vector(direction)
    if not np.any(u != 0.0):
        raise ValueError("direction must be nonzero")
    cols = samples.T  # (dim, N): contiguous rows when samples is a transposed (dim, N) array
    jmax = int(np.argmax(np.abs(u)))
    coeffs = cols[jmax] / u[jmax] if guess is None else np.array(guess, dtype=np.float64)
    ok = np.all(u[:, None] * coeffs == cols, axis=0)
    rows = np.flatnonzero(~ok)
    if rows.size:
        base = cols[jmax, rows] / u[jmax]
        away = np.array([[math.inf], [-math.inf]])
        one = np.nextafter(base, away)
        # (5, rows) candidates in trial order 0, +1, -1, +2, -2 ulp, all tried in one pass
        cands = np.concatenate([base[None], one, np.nextafter(one, away)])
        hits = np.all(u[:, None, None] * cands == cols[:, None, rows], axis=0)
        hit = hits.any(axis=0)
        coeffs[rows] = np.where(hit, cands[hits.argmax(axis=0), np.arange(rows.size)], base)
        ok[rows] = hit
    return ok, coeffs
