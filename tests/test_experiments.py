from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqlab import experiments, gaussian
from cqlab.correspondence import EXACT_CLASS_RTOL, quantum_average, t_state, t_variable
from cqlab.errors import ConfigError, SizeError
from cqlab.experiments import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    SecondMomentState,
    alpha_sweep,
    analytic_average,
    bound_plus_noise,
    build_functional,
    build_state,
    chebyshev_experiment,
    closed_form_average,
    derive_seed,
    finite_qm_demo,
    higher_order_check,
    in_range,
    measured,
    relative_error,
    relatively_exact,
    separated,
    mc_average,
    moments_check,
    nongaussian_experiment,
    pure_state_experiment,
    sub_alpha_states,
    within_sigmas,
)
from cqlab.functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Functional,
    QuadFormFunctional,
    Quadratic,
    ScaledFunctional,
    SinQuad,
    SymmetricForm,
    amplify,
    double_factorial,
    holds_dense_term,
)
from cqlab.gaussian import (
    COPIES,
    DEFAULT_CHUNK_SIZE,
    GaussianState,
    Moments,
    copy_steps,
    draw_chunked,
    exact_span_coefficients,
    merged,
    pure_state_measure,
    sampling_workers,
    substream,
)
from cqlab.hilbert import symmetric_from_entries, trace_product
from cqlab.wick import gaussian_integral_multilinear, moment_mc_check


def _check(report: dict, name: str):
    return next(c for c in report["checks"] if c.name == name)


def _chunk_rows(width: int) -> int:
    """The rows of a `draw_chunked` chunk whose rows hold `width` draws."""
    return min(DEFAULT_CHUNK_SIZE, max(1, gaussian.BLOCK_VALUES // width))


def _drawn_rows(seed: int, count: int, draw, width: int) -> np.ndarray:
    """The rows `draw` fills in a `draw_chunked` call, held at once: each
    chunk's rows as a one-element list partial, in chunk order."""
    return np.concatenate(draw_chunked(seed, count, lambda rng, m: [draw(rng, m)], width).partial)


def _chunk_merge(values: np.ndarray, rows: int) -> list[tuple[float, float]]:
    """The reference statistic of values held at once: the `Moments` of each
    chunk of `rows` rows, merged in chunk order."""
    return merged(Moments.of(values[c:c + rows])
                  for c in range(0, values.shape[0], rows)).mean_stderr()


def _copy_mean(g: Functional, z: np.ndarray, ratios, seed: int, copies: int) -> np.ndarray:
    """The per-draw values `mc_average` reduces for the white rows z held at
    once: g at z and each copy variable g o Q_j^T at z, summed in copy order
    and divided by the count.  z @ Q_j is copy j, `z[:, p_j] * s_j` of copy
    j - 1, so Q_j is Q_(j-1) with its columns permuted and flipped.  A
    variable with a dense form term is evaluated at the copies themselves,
    each gathered from the one before."""
    values = g.eval_batch(z, ratios)
    if copies == 1:
        return values
    q, copy = np.eye(g.dim), z
    for p, signs in copy_steps(seed, g.dim):
        q, copy = q[:, p] * signs, copy[:, p] * signs
        values += (g.eval_batch(copy, ratios) if holds_dense_term(g)
                   else g.pullback(q.T).eval_batch(z, ratios))
    return values / copies


# a worker holds at most four arrays of BLOCK_VALUES doubles, whatever the sample count
_WORKER_BYTES = 4 * 8 * gaussian.BLOCK_VALUES

# frozen characteristic-function oracle values for psi ~ N(0, 0.1), a = 1:
# E exp(i a psi^2) = (1 - 2i a alpha)^(-1/2)
COS_ORACLE_A1_ALPHA01 = -0.014576452171610188   # Re(1 - 0.2i)^(-1/2) - 1
SIN_ORACLE_A1_ALPHA01 = 0.09757616038884351     # Im(1 - 0.2i)^(-1/2)


def _grid_cfg(dim, functional, state, mc=2000, seed=7, order=1):
    return ExperimentConfig(
        dim=dim, alpha_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
        functional_spec=functional, state_spec=state,
        mc_samples=mc, seed=seed, order=order)


def test_mc_average_quadratic_trace_formula():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4))
    b = m @ m.T * 0.01
    rho = GaussianState(b)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    [(mean, stderr)] = mc_average(Quadratic(a), rho, 100_000, seed=3)
    assert abs(mean - trace_product(b, a)) <= 4.0 * stderr


def test_mc_average_cos_matches_characteristic_function():
    rho = GaussianState(np.array([[0.1]]))
    two = complex(1.0, -0.2) ** -0.5
    assert two.real - 1.0 == pytest.approx(COS_ORACLE_A1_ALPHA01, rel=1e-12)
    [(mean, stderr)] = mc_average(CosQuadMinusOne([[1.0]]), rho, 200_000, seed=5)
    assert abs(mean - COS_ORACLE_A1_ALPHA01) <= 4.0 * stderr


def test_mc_average_sin_matches_characteristic_function():
    rho = GaussianState(np.array([[0.1]]))
    [(mean, stderr)] = mc_average(SinQuad([[1.0]]), rho, 200_000, seed=5)
    assert abs(mean - SIN_ORACLE_A1_ALPHA01) <= 4.0 * stderr


# every family build_functional makes, and the state shapes whose active
# factor is full rank (random, isotropic) or not (rank1, zero weights)
_PULLBACK_FUNCTIONALS = {
    "quadratic": {"family": "quadratic", "operator": {"random": {"seed": 2}}},
    "sin-quad": {"family": "sin-quad", "operator": {"random": {"seed": 2}}},
    "cos-quad-minus-one": {"family": "cos-quad-minus-one", "operator": {"random": {"seed": 2}}},
    "even-polynomial": {"family": "even-polynomial", "quadratic": {"random": {"seed": 3}},
                        "quartic": {"operator": {"random": {"seed": 2}}, "coeff": 0.5}},
}
_PULLBACK_STATES = {
    "random": {"shape": "random", "seed": 5},
    "isotropic": {"shape": "isotropic"},
    "rank1": {"shape": "rank1", "psi": list(np.linspace(-1.0, 2.0, 16))},
    "zero-weight-diagonal": {"shape": "diagonal", "weights": [float(k % 3) for k in range(16)]},
}


def _quadratic_terms(f: Functional) -> list[tuple[float, int, np.ndarray]]:
    """(c, j, A) per term of f = sum c g((A psi, psi)), with g sin, cos - 1 or
    the identity (j = 1, each 1-Lipschitz) or q^j (an even polynomial)."""
    if isinstance(f, ScaledFunctional):
        return [(abs(f.factor) * c, j, a) for c, j, a in _quadratic_terms(f.base)]
    if isinstance(f, EvenPolynomial):
        return [(1.0, 1, q.tensor) if q.kind == "dense"
                else (abs(q.coeff) * double_factorial(2 * q.npairs - 1), q.npairs, q.matrix)
                for q in f.terms.values()]
    return [(1.0, 1, f.operator)]


@pytest.mark.parametrize("alpha", [0.5, 20.0])
@pytest.mark.parametrize("state", list(_PULLBACK_STATES))
@pytest.mark.parametrize("family", list(_PULLBACK_FUNCTIONALS))
def test_pullback_reads_the_white_draws_as_the_rows(family, state, alpha):
    # f o F_a on z equals f on z F_a^T up to rounding.  The bound is absolute,
    # because q can cancel: each q = (A F z, F z) moves by at most
    # dim * eps * w, w = |z|^2 ||F_a||^2 ||A|| (both sides contract dim terms),
    # so a term c q^j at ratio r moves by dim * eps * c j (r w)^j; plus eps * c
    # for g's own rounding, since cos q - 1 is read off cos q near 1.
    dim, ratios = 16, [1.0, 0.3, 1e-3]
    rho = build_state(_PULLBACK_STATES[state], dim, alpha)
    fmat = rho.active_factor
    eps = np.finfo(np.float64).eps
    z = substream(7, 0).standard_normal((2000, fmat.shape[1]))
    w = np.einsum("pi,pi->p", z, z) * np.linalg.norm(fmat, 2) ** 2
    base = build_functional(_PULLBACK_FUNCTIONALS[family], dim)
    for f in (base, amplify(base, 1e-3)):
        pulled = f.pullback(fmat)
        assert type(pulled) is type(f) and pulled.dim == fmat.shape[1]
        for r in ((1.0,), ratios):
            scale = np.multiply.outer(w, r)
            tol = eps * sum(c * (dim * j * (scale * np.linalg.norm(a, 2)) ** j + 1.0)
                            for c, j, a in _quadratic_terms(f))
            got, want = pulled.eval_batch(z, r), f.eval_batch(z @ fmat.T, r)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol), (f, r)


def test_mc_average_of_a_zero_state_is_zero():
    # rank 0: no white draw is read, and every pulled-back form lives on R^0
    rho = GaussianState(np.zeros((3, 3)))
    for spec in _PULLBACK_FUNCTIONALS.values():
        f = build_functional(spec, 3)
        assert mc_average(f, rho, 5000, seed=1) == [(0.0, 0.0)]
        assert mc_average(f, rho, 5000, seed=1, ratios=[1.0, 0.5]) == [(0.0, 0.0)] * 2


def test_one_sample_has_no_stderr():
    # Moments.mean_stderr divides by count - 1, so every caller refuses one
    # sample; at rank 2 * COPIES, COPIES evaluations are one draw
    with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
        mc_average(Quadratic(np.eye(2)), GaussianState(np.eye(2)), 1, seed=3)
    rank8 = GaussianState(np.eye(2 * COPIES))
    with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
        mc_average(Quadratic(np.eye(2 * COPIES)), rank8, COPIES, seed=3)
    assert len(mc_average(Quadratic(np.eye(2 * COPIES)), rank8, COPIES + 1, seed=3)) == 1
    with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
        pure_state_experiment(np.array([0.6, 0.8]), 0.1, np.eye(2), 1, 3)


def test_mc_average_independent_of_workers():
    # 14 chunks: the merge leaves merges of 8, 4 and 2 chunks on its stack
    rho = GaussianState(np.eye(3) * 0.2)
    f = Quadratic(np.eye(3))
    count, ratios = 13 * DEFAULT_CHUNK_SIZE + 17, [1.0, 0.1, 1e-3]
    one = mc_average(f, rho, count, seed=9, ratios=ratios)
    for workers in (2, 8):
        with sampling_workers(workers):
            assert mc_average(f, rho, count, seed=9, ratios=ratios) == one


_STREAM_STATES = {
    "gaussian-dim16": lambda: build_state({"shape": "random", "seed": 3}, 16, 0.2),
    "pure-rank1": lambda: pure_state_measure(np.linspace(1.0, 2.0, 16), 0.2),
    "product-laplace": lambda: SecondMomentState.product_laplace(np.linspace(0.01, 0.02, 16)),
    "uniform-sphere": lambda: SecondMomentState.uniform_sphere(0.4, 16),
    # above width 8 a chunk has BLOCK_VALUES // width rows
    "gaussian-dim40": lambda: build_state({"shape": "random", "seed": 3}, 40, 0.2),
    "product-laplace-dim40": lambda: SecondMomentState.product_laplace(
        np.linspace(0.01, 0.02, 40)),
}


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("state_name", list(_STREAM_STATES))
def test_mc_average_streams_the_same_bits_as_a_full_batch(state_name, workers):
    state = _STREAM_STATES[state_name]()
    dim = state.dim
    a = symmetric_from_entries(substream(4, 0).standard_normal((dim, dim)))
    count = 3 * 4096 + 17
    ratios = [1.0, 0.3, 1e-3]
    for f in (CosQuadMinusOne(a),
              EvenPolynomial({4: SymmetricForm.from_quadratic_power(np.eye(dim), 2, 1.0)})):
        # the reference: the ceil(count / copies) draws the state hands
        # over, held at once, with one worker, and evaluated by the variable
        # it hands back, as the mean of their copies at rank 16 and 40
        g, draw = state.whitened(f)
        copies = COPIES if state_name.startswith("gaussian") else 1
        x = _drawn_rows(21, -(-count // copies), draw, g.dim)
        expected = _chunk_merge(_copy_mean(g, x, ratios, 21, copies), _chunk_rows(g.dim))
        with sampling_workers(workers):
            # the default call is the one pair of ratio 1.0, and pair i of a
            # k-ratio call is the one-ratio call at r_i
            assert mc_average(f, state, count, 21) == expected[:1]
            assert mc_average(f, state, count, 21, ratios) == expected
            assert [mc_average(f, state, count, 21, [r])[0] for r in ratios] == expected


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("psi", [np.linspace(1.0, 2.0, 16), np.array([0.6, 0.0, 0.8, 0.0]),
                                 np.linspace(-1.0, 2.0, 40)],
                         ids=["dense", "two-axes", "dim40"])
def test_streamed_experiments_match_a_full_batch(psi, workers):
    # references computed on the rows of GaussianState.sample, held at once,
    # with one worker; a sample row and a chunk row of either experiment
    # hold dim draws, so their chunks match at dim 40 too
    dim, count, seed, alpha = psi.size, 3 * 4096 + 17, 21, 0.2
    v = psi / np.linalg.norm(psi)
    a = symmetric_from_entries(substream(4, 0).standard_normal((dim, dim)))

    rho = pure_state_measure(v, alpha)
    x = rho.sample(seed, count)
    with sampling_workers(workers):
        report = pure_state_experiment(v, alpha, a, count, seed)
    amplified = _check(report, "amplified_average")
    # one eval_batch per chunk of column-major rows, as the experiment forms
    # them (x^T = F_a z^T): a BLAS GEMM row's last bits can depend on how
    # many rows its batch holds and on their layout
    rows = _chunk_rows(dim)
    values = np.concatenate([Quadratic(a).eval_batch(np.asfortranarray(x[c:c + rows]))[:, 0]
                             for c in range(0, count, rows)])
    assert [(amplified.statistic, amplified.stderr)] == _chunk_merge(values / alpha, rows)
    direction = rho.active_factor[:, 0]
    off_axis = x[:, direction == 0.0] == 0.0
    assert _check(report, "span").statistic == np.mean(exact_span_coefficients(x, direction)[0])
    assert _check(report, "off_axis_zero").statistic == \
        (np.mean(off_axis) if off_axis.size else 1.0)
    # x^T x is summed chunk by chunk, so only its last digits may move
    cov_err = np.abs((x.T @ x) / count / alpha - np.outer(v, v)).max()
    assert abs(report["covariance_max_error"] - cov_err) <= 1e-12 * np.abs(np.outer(v, v)).max()

    cfg = ExperimentConfig(dim=dim, alpha_grid=(0.1, 0.01, 0.001),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "random", "seed": 3}, mc_samples=count, seed=seed)
    with sampling_workers(workers):
        rows = chebyshev_experiment(cfg)["rows"]
    for i, alpha_i in enumerate(cfg.alpha_grid):
        state = build_state(cfg.state_spec, dim, alpha_i)
        x = state.sample(derive_seed(seed, 20 + i), count)
        energies = np.einsum("pi,pi->p", x, x)
        thresholds = [r.C for r in rows[3 * i:3 * i + 3]]
        with sampling_workers(workers):
            streamed = experiments._tail_counts(state, thresholds, count,
                                                derive_seed(seed, 20 + i))
        assert streamed == tuple(np.count_nonzero(energies > c) for c in thresholds)
        assert [r.empirical for r in rows[3 * i:3 * i + 3]] == \
            [float(np.mean(energies > c)) for c in thresholds]


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("shape", ["isotropic", "random"])
def test_moment_mc_check_is_mc_average_of_the_one_term_polynomial(shape, workers):
    # the reference is taken with one worker
    dim, count, seed = 5, 3 * 4096 + 17, 21
    state = build_state({"shape": shape, "seed": 3}, dim, 1.0)
    a = symmetric_from_entries(substream(4, 0).standard_normal((dim, dim)))
    for form in (SymmetricForm.from_dense(substream(5, 0).standard_normal((dim,) * 4)),
                 SymmetricForm.from_quadratic_power(a, 2, 0.5)):
        expected = (gaussian_integral_multilinear(form, state.covariance),
                    *mc_average(EvenPolynomial({form.order: form}), state, count, seed)[0])
        with sampling_workers(workers):
            assert moment_mc_check(state, form, count, seed) == expected


def test_mc_average_memory_is_bounded_by_the_values():
    # N x dim rows would be 100 MB, and N values 1.6 MB
    dim, count = 64, 200_000
    rho = GaussianState(np.eye(dim) / dim)
    tracemalloc.start()
    try:
        with sampling_workers(2):
            mc_average(Quadratic(np.eye(dim)), rho, count, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * _WORKER_BYTES


def _dim64_cos_sweep():
    # the shape of the benchmark's mc_sweep calls: dim 64, random state and operator, 5 ratios
    dim = 64
    state = build_state({"shape": "random", "seed": 5}, dim, 0.1)
    f = CosQuadMinusOne(symmetric_from_entries(substream(3, 0).standard_normal((dim, dim))))
    return f, state, (1.0, 0.3, 0.1, 0.03, 0.01)


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("count", [65_536, 3 * 4096 + 17, 4096 + 1025, 2 * 4096 + 1,
                                   65_536 + 3 * 512 + 17])
def test_blocked_mc_average_matches_one_eval_batch_per_chunk(count, workers):
    # at rank 64 each white draw is evaluated as COPIES copies, so count
    # evaluations take ceil(count / COPIES) draws; chunk c is the
    # BLOCK_VALUES // 64 = 512 draws from substream(seed, c), the last one
    # shorter, and the reference evaluates each chunk's copy mean in one
    # call per copy, with one worker and no draw_chunked.  Every count but
    # 65,536 leaves a short last chunk
    f, state, ratios = _dim64_cos_sweep()
    g, draw = state.whitened(f)
    rows = gaussian.BLOCK_VALUES // g.dim
    assert rows == _chunk_rows(g.dim) < DEFAULT_CHUNK_SIZE
    draws = -(-count // COPIES)
    values = np.concatenate([_copy_mean(g, draw(substream(7, c // rows), min(rows, draws - c)),
                                        ratios, 7, COPIES) for c in range(0, draws, rows)])
    expected = _chunk_merge(values, rows)
    with sampling_workers(workers):
        assert mc_average(f, state, count, 7, ratios) == expected


def test_rank_7_mc_average_keeps_one_evaluation_per_draw():
    # below rank 2 * COPIES each draw is evaluated once: one eval_batch per
    # chunk of count draws, and the values of the one-evaluation estimator
    # from before the copies (pinned to the golden files' 1e-12 relative)
    state = build_state({"shape": "random", "seed": 5}, 7, 0.2)
    f = CosQuadMinusOne(symmetric_from_entries(substream(3, 0).standard_normal((7, 7))))
    count, ratios = 3 * 4096 + 17, [1.0, 0.1]
    g, draw = state.whitened(f)
    assert g.dim == 7 == 2 * COPIES - 1
    got = mc_average(f, state, count, 19, ratios)
    assert got == _chunk_merge(g.eval_batch(_drawn_rows(19, count, draw, 7), ratios),
                               _chunk_rows(7))
    pinned = [(-0.03611039654925846, 0.0008159076500705877),
              (-0.0003824652726687248, 1.0211722090922205e-05)]
    assert np.allclose(got, pinned, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim, kind, draws", [
    (8, "gaussian", 1025), (7, "gaussian", 4097), (64, "rank1", 4097), (8, "laplace", 4097)])
def test_mc_average_draws_a_quarter_of_the_count_at_rank_8(monkeypatch, dim, kind, draws):
    # mc_samples counts evaluations: a Gaussian state of rank >= 8 draws
    # ceil(N / COPIES) white rows; a lower rank or a non-Gaussian state draws N
    states = {"gaussian": lambda: build_state({"shape": "random", "seed": 5}, dim, 0.2),
              "rank1": lambda: pure_state_measure(np.ones(dim), 0.2),
              "laplace": lambda: SecondMomentState.product_laplace(np.full(dim, 0.1))}
    counts = []

    def spy(seed, count, fill, width):
        counts.append(count)
        return draw_chunked(seed, count, fill, width)

    monkeypatch.setattr(gaussian, "draw_chunked", spy)
    mc_average(Quadratic(np.eye(dim)), states[kind](), 4097, 3)
    assert counts == [draws]


def _dense_rank8():
    # a moments-check variable: the one-term polynomial of a dense order-4
    # form, on a full-rank dim-8 state, whose chunks hold 4096 draws
    state = build_state({"shape": "random", "seed": 5}, 8, 8.0)
    return EvenPolynomial({4: SymmetricForm.from_dense(substream(5, 0).standard_normal((8,) * 4))}), state


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variable, cls, pullbacks", [
    ("cos-rank64", QuadFormFunctional, COPIES), ("dense-rank8", EvenPolynomial, 1)])
def test_copies_are_pulled_back_once_per_call(monkeypatch, variable, cls, pullbacks, workers):
    # 65,536 evaluations are 32 chunks of 512 draws at rank 64 and 4 chunks
    # of 4096 at rank 8.  The copy variables g o Q_j^T are built once per
    # call, beside the whitening pullback, not once per chunk; a dense form
    # term is pulled back by the whitening alone, and its copies are gathered
    f, state = _dim64_cos_sweep()[:2] if variable == "cos-rank64" else _dense_rank8()
    original, calls = cls.pullback, []

    def spy(self, fmat):
        calls.append(fmat.shape)
        return original(self, fmat)

    monkeypatch.setattr(cls, "pullback", spy)
    with sampling_workers(workers):
        mc_average(f, state, 65_536, 7)
    rank = state.active_factor.shape[1]
    assert calls == [(state.dim, rank)] + [(rank, rank)] * (pullbacks - 1)


@pytest.mark.parametrize("workers", [1, 8])
def test_dense_mc_average_evaluates_the_gathered_copies(workers):
    # each copy of a dense-term variable's draws is gathered and flipped
    # from the one before, so the values are g's at the copies themselves:
    # 9,233 evaluations are 2,309 draws, one chunk of at most 4096 rows at
    # width 8, and 12 * 4096 + 17 are 12,293 draws, four chunks, the last
    # of 5 rows
    f, state = _dense_rank8()
    g, draw = state.whitened(f)
    assert holds_dense_term(g) and g.dim == 2 * COPIES
    for count in (9_233, 12 * 4096 + 17):
        z = _drawn_rows(11, -(-count // COPIES), draw, g.dim)
        expected = _chunk_merge(_copy_mean(g, z, [1.0, 0.1], 11, COPIES), _chunk_rows(g.dim))
        with sampling_workers(workers):
            assert mc_average(f, state, count, 11, [1.0, 0.1]) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_average_holds_blocks_not_chunks(workers):
    # a worker holds a few arrays of one chunk's BLOCK_VALUES draws and its
    # values; a 4096 x 64 chunk of normals and its GEMM product would be
    # 4 MiB per worker, and the 65,536 x 5 values 2.5 MiB
    f, state, ratios = _dim64_cos_sweep()
    tracemalloc.start()
    try:
        with sampling_workers(workers):
            mc_average(f, state, 65_536, 7, ratios)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < workers * _WORKER_BYTES


_DIM64 = ExperimentConfig(dim=64, alpha_grid=(0.1, 0.01, 0.001),
                          functional_spec={"family": "quadratic"},
                          state_spec={"shape": "isotropic"}, mc_samples=200_000, seed=4)


def _mc_average_run(cfg: ExperimentConfig):
    f, state, ratios = _dim64_cos_sweep()
    return mc_average(f, state, cfg.mc_samples, cfg.seed, ratios)


_MEMORY_RUNS = {
    "mc-average": _mc_average_run,
    "pure-state": lambda cfg: pure_state_experiment(np.full(cfg.dim, 0.125), 0.1,
                                                    np.eye(cfg.dim), cfg.mc_samples, cfg.seed),
    "chebyshev": chebyshev_experiment,
    "moments-check": moments_check,
}


def _traced(run, cfg: ExperimentConfig, workers: int) -> tuple:
    """(run(cfg), its tracemalloc peak in bytes) with `workers` sampling workers."""
    tracemalloc.start()
    try:
        with sampling_workers(workers):
            result = run(cfg)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["pure-state", "chebyshev", "moments-check"])
def test_experiment_memory_is_bounded_by_the_values(name):
    # the same bound as mc_average's; N x dim rows would be 100 MB
    report, peak = _traced(_MEMORY_RUNS[name], _DIM64, 2)
    assert report["passed"]
    assert peak < 2 * _WORKER_BYTES


@pytest.mark.parametrize("name", list(_MEMORY_RUNS))
def test_memory_does_not_grow_with_the_sample_count(name):
    # 4 and 64 chunks: the partials held on the binary-counter stack grow
    # with log2 of the chunk count, the rest not at all
    count = 4 * DEFAULT_CHUNK_SIZE
    for n in (count, 16 * count):
        _, peak = _traced(_MEMORY_RUNS[name], replace(_DIM64, mc_samples=n), 2)
        assert peak < 2 * _WORKER_BYTES, n


def test_analytic_average_quadratic_exact():
    rng = np.random.default_rng(11)
    alpha = 0.05
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    b *= alpha / np.trace(b)
    rho = GaussianState(b)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    d = b / alpha
    assert analytic_average(Quadratic(a), rho, 2) == pytest.approx(
        alpha * trace_product(d, a), rel=1e-12)


def test_analytic_average_polynomial_matches_mc():
    rng = np.random.default_rng(12)
    b = np.diag([0.08, 0.12])
    rho = GaussianState(b)
    f = EvenPolynomial({
        2: SymmetricForm.from_matrix(symmetric_from_entries(rng.normal(size=(2, 2)))),
        4: SymmetricForm.from_quadratic_power(
            symmetric_from_entries(rng.normal(size=(2, 2))), 2, 1.0),
    })
    analytic = analytic_average(f, rho, 4)
    [(mean, stderr)] = mc_average(f, rho, 200_000, seed=13)
    assert abs(mean - analytic) <= 4.0 * stderr


def test_analytic_average_sin_truncation_error_is_cubic():
    a = 1.0
    for alpha in (0.1, 0.01):
        rho = GaussianState(np.array([[alpha]]))
        f = SinQuad([[a]])
        trunc = analytic_average(f, rho, 2)
        assert trunc == pytest.approx(a * alpha, rel=1e-12)
        [closed] = closed_form_average(f, rho)
        # leading error term is -(5/2) a^3 alpha^3
        assert abs(closed - trunc) <= 3.0 * a ** 3 * alpha ** 3


def test_closed_form_cos_truncation_error_is_quartic():
    a = 1.0
    for alpha in (0.1, 0.03, 0.01):
        rho = GaussianState(np.array([[alpha]]))
        f = CosQuadMinusOne([[a]])
        [closed] = closed_form_average(f, rho)
        trunc = analytic_average(f, rho, 4)
        assert trunc == pytest.approx(-1.5 * a * a * alpha * alpha, rel=1e-12)
        # next term in the characteristic-function series is (35/8) a^4 alpha^4
        assert abs(closed - trunc) <= 1.01 * (35.0 / 8.0) * a ** 4 * alpha ** 4


def test_closed_form_matches_mc_at_higher_dimension():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    b *= 0.05 / np.trace(b)
    rho = GaussianState(b)
    a = symmetric_from_entries(0.3 * rng.normal(size=(3, 3)))
    for f in (SinQuad(a), CosQuadMinusOne(a)):
        [closed] = closed_form_average(f, rho)
        [(mean, stderr)] = mc_average(f, rho, 300_000, seed=15)
        assert abs(mean - closed) <= 4.0 * stderr


def test_sweep_quadratic_is_noise_limited():
    cfg = _grid_cfg(3, {"family": "quadratic", "operator": {"random": {"seed": 2}}},
                    {"shape": "random", "seed": 4})
    res = alpha_sweep(cfg)
    assert res["noise_limited"]
    assert res["fitted_slope"] is None
    assert all(r.below_noise for r in res["rows"])


def test_sweep_cos_remainder_order_two():
    cfg = _grid_cfg(1, {"family": "cos-quad-minus-one", "operator": {"matrix": [[1.0]]}},
                    {"shape": "isotropic"})
    res = alpha_sweep(cfg)
    assert res["fitted_slope"] == pytest.approx(2.0, abs=0.1)


def test_sweep_sin_remainder_order_three():
    cfg = _grid_cfg(1, {"family": "sin-quad", "operator": {"matrix": [[1.0]]}},
                    {"shape": "isotropic"})
    res = alpha_sweep(cfg)
    assert res["fitted_slope"] == pytest.approx(3.0, abs=0.15)


def test_sweep_requires_wide_grid():
    cfg = ExperimentConfig(dim=1, alpha_grid=(0.1, 0.05, 0.02),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "isotropic"}, mc_samples=1000, seed=1)
    with pytest.raises(ConfigError):
        alpha_sweep(cfg)


COS_SWEEP = json.loads((Path(__file__).resolve().parent.parent / "configs" / "cos_sweep.json")
                       .read_text())


@pytest.mark.parametrize("band, passed", [([1.9, 2.1], True), ([2.9, 3.1], False)])
def test_sweep_gates_its_own_band(band, passed):
    assert COS_SWEEP["slope_band"] == [1.9, 2.1]  # the shipped band
    report = alpha_sweep(ExperimentConfig.from_json(dict(COS_SWEEP, slope_band=band)))
    assert report["passed"] is passed
    assert _check(report, "fitted_slope").passed is passed


def test_nan_slope_fails_its_band():
    nan_op = dict(COS_SWEEP, functional={"family": "cos-quad-minus-one",
                                         "operator": {"matrix": [[float("nan")]]}})
    report = alpha_sweep(ExperimentConfig.from_json(nan_op))
    assert math.isnan(report["fitted_slope"])
    assert not _check(report, "fitted_slope").passed
    # every row reads the one NaN closed form and quantum term, so every row fails
    assert not any(_check(report, f"remainder[{i}]").passed for i in range(len(report["rows"])))


def test_library_sweep_in_a_sampling_block_pins_blas(monkeypatch):
    control = gaussian._blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this NumPy build")
    seen = []
    average = experiments.mc_average

    def spy(*args, **kwargs):
        seen.append((control[0](), gaussian._WORKERS.get()))
        return average(*args, **kwargs)

    monkeypatch.setattr(experiments, "mc_average", spy)
    cfg = ExperimentConfig.from_json(COS_SWEEP)
    with sampling_workers(2):
        assert alpha_sweep(cfg)["passed"]
    assert seen == [(1, 2)]  # one shared draw for the whole grid


_SHARED_DRAW_FUNCTIONALS = {
    "cos": {"family": "cos-quad-minus-one", "operator": {"random": {"seed": 2}}},
    "quartic": {"family": "even-polynomial",
                "quartic": {"operator": {"random": {"seed": 2}}, "coeff": 0.5}},
}


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("family", list(_SHARED_DRAW_FUNCTIONALS))
def test_sweep_rows_share_one_rescaled_draw(family, workers):
    cfg = ExperimentConfig(dim=16, alpha_grid=(0.1, 0.03, 0.01, 0.003, 0.001),
                           functional_spec=_SHARED_DRAW_FUNCTIONALS[family],
                           state_spec={"shape": "random", "seed": 5},
                           mc_samples=3 * 4096 + 17, seed=23)
    f = experiments.build_functional(cfg.functional_spec, cfg.dim)
    first = build_state(cfg.state_spec, cfg.dim, cfg.alpha_grid[0])
    # the reference: the ceil(N / COPIES) white draws of the first state
    # (rank 16) held at once, with one worker, and evaluated by f pulled
    # back through its active factor, as the mean of their copies, at every
    # grid ratio alpha_i / alpha_0 in one call per copy
    rank = first.active_factor.shape[1]
    z = _drawn_rows(cfg.seed, -(-cfg.mc_samples // COPIES), first.white, rank)
    expected = _chunk_merge(_copy_mean(
        f.pullback(first.active_factor), z, [alpha / cfg.alpha_grid[0] for alpha in cfg.alpha_grid],
        cfg.seed, COPIES), _chunk_rows(rank))
    with sampling_workers(workers):
        rows = alpha_sweep(cfg)["rows"]
        # row 0 is what the sweep computed before the draw was shared
        assert expected[:1] == mc_average(f, first, cfg.mc_samples, derive_seed(cfg.seed, 0))
    assert [(r.classical_mc, r.stderr) for r in rows] == expected


@pytest.mark.parametrize("family", list(_SHARED_DRAW_FUNCTIONALS))
def test_sweep_evaluates_each_chunk_once(family, monkeypatch):
    # every grid row reads the same contraction of a chunk: one eval_batch
    # call per chunk, not one per chunk and grid point
    cfg = ExperimentConfig(dim=4, alpha_grid=(0.1, 0.03, 0.01, 0.003, 0.001),
                           functional_spec=_SHARED_DRAW_FUNCTIONALS[family],
                           state_spec={"shape": "isotropic"}, mc_samples=65_536, seed=3)
    cls = type(experiments.build_functional(cfg.functional_spec, cfg.dim))
    original = cls.eval_batch
    rows = []

    def spy(self, x, *args, **kwargs):
        rows.append(x.shape[0])
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(cls, "eval_batch", spy)
    alpha_sweep(cfg)
    assert rows == [4096] * 16


@pytest.mark.parametrize("family", list(_PULLBACK_FUNCTIONALS))
@pytest.mark.parametrize("state", list(_PULLBACK_STATES))
def test_sweep_row_i_is_the_alpha_i_state(state, family):
    # row i reads the first state at the ratio alpha_i / alpha_0; a state
    # built at alpha_i has the same covariance to a few ulps per entry, so
    # the two differ by rounding alone.  A closed-form term c g((A psi, psi))
    # (g 1-Lipschitz, j = 1) or c q^j then moves by at most
    # dim * eps * c j (2j-1)!! (alpha ||A||)^j, and the quantum term by
    # dim * eps * alpha ||A_2||, with A_2 = t_variable(f).  The remainder is
    # their difference, which cancels, so it is not compared.
    dim, eps = 16, np.finfo(np.float64).eps
    cfg = ExperimentConfig(dim=dim, alpha_grid=(0.5, 0.1, 0.03, 0.01, 0.003, 0.001),
                           functional_spec=_PULLBACK_FUNCTIONALS[family],
                           state_spec=_PULLBACK_STATES[state], mc_samples=1000, seed=1)
    f = build_functional(cfg.functional_spec, dim)
    a2 = t_variable(f)
    rows = alpha_sweep(cfg)["rows"]
    assert len(rows) == len(cfg.alpha_grid)
    for alpha, row in zip(cfg.alpha_grid, rows):
        rho = build_state(cfg.state_spec, dim, alpha)
        quantum = alpha * quantum_average(t_state(rho, alpha), a2)
        tol = dim * eps * sum(c * j * double_factorial(2 * j - 1)
                              * (alpha * np.linalg.norm(a, 2)) ** j
                              for c, j, a in _quadratic_terms(f))
        assert abs(row.classical_analytic - f.closed_form(rho)[0]) <= tol, alpha
        assert abs(row.quantum_term - quantum) <= dim * eps * alpha * np.linalg.norm(a2, 2), alpha


@pytest.mark.parametrize("family", ["cos-quad-minus-one", "sin-quad", "quadratic"])
def test_shared_draw_rows_are_unbiased(family):
    # each row's MC mean still estimates its own state's exact average
    for seed in range(4):
        cfg = ExperimentConfig(dim=16, alpha_grid=(0.1, 0.03, 0.01, 0.003, 0.001),
                               functional_spec={"family": family,
                                                "operator": {"random": {"seed": 40 + seed}}},
                               state_spec={"shape": "random", "seed": 50 + seed},
                               mc_samples=20_000, seed=60 + seed)
        for r in alpha_sweep(cfg)["rows"]:
            assert abs(r.classical_mc - r.classical_analytic) <= 4.0 * r.stderr, (seed, r)


def test_amplified_averages_converge_monotonically():
    # |<f_alpha> - Tr D A| must shrink along the grid (analytic route)
    a = 1.0
    f = CosQuadMinusOne([[a]])
    gaps = []
    for alpha in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        rho = GaussianState(np.array([[alpha]]))
        d = t_state(rho, alpha)
        amplified_classical = closed_form_average(f, rho)[0] / alpha
        quantum = quantum_average(d, t_variable(f))
        gaps.append(abs(amplified_classical - quantum))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 50.0


def test_extended_map_trace_formula_exact_for_quadratics():
    # the self-normalized map keeps the quadratic trace formula exact even
    # off the nominal dispersion class
    from cqlab.correspondence import t_state_extended

    rng = np.random.default_rng(67)
    m = rng.normal(size=(3, 3))
    b = m @ m.T * 0.01
    rho = GaussianState(b)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    [lhs] = closed_form_average(Quadratic(a), rho)
    rhs = rho.dispersion() * quantum_average(t_state_extended(rho), a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# (kind, c_m (2m)!) of every nonzero Taylor form at orders 1..8
_TAYLOR_REFERENCE = {
    Quadratic: {2: ("pairing", 2)},
    SinQuad: {2: ("pairing", 2), 6: ("pairing", -120)},
    CosQuadMinusOne: {4: ("pairing", -12), 8: ("pairing", 1680)},
}


def _reference_closed_form(f, rho, r=1.0):
    # the average under r B: Tr(r B A), or mu_j -> r mu_j in the characteristic
    # prod_j (1 - 2 i mu_j)^(-1/2) = e^(x + i y), whose sin and cos - 1 parts
    # are e^x sin y and expm1(x) cos y - 2 sin^2(y / 2)
    if type(f) is Quadratic:
        return r * trace_product(rho.covariance, f.operator)
    fmat = rho.active_factor
    t = 2.0 * (r * np.linalg.eigvalsh(fmat.T @ f.operator @ fmat))
    x, y = -0.25 * float(np.sum(np.log1p(t * t))), 0.5 * float(np.sum(np.arctan(t)))
    if type(f) is SinQuad:
        return math.exp(x) * math.sin(y)
    return math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2


@pytest.mark.parametrize("family", list(_TAYLOR_REFERENCE), ids=lambda c: c.__name__)
def test_quadratic_form_families_match_reference_bit_for_bit(family):
    rng = np.random.default_rng(71)
    f = family(rng.normal(size=(3, 3)))
    for k in range(1, 9):
        form = f.taylor_form(k)
        kind, scale = _TAYLOR_REFERENCE[family].get(k, ("zero", 0))
        assert (form.kind, form.order, form.dim) == (kind, k, 3)
        if kind == "pairing":
            assert form.npairs == k // 2
            assert form.coeff == scale / double_factorial(k - 1)
            assert np.array_equal(form.matrix, f.operator)
        else:
            assert form.coeff == 0.0 and form.tensor is None and form.matrix is None
    m = rng.normal(size=(3, 3))
    rho = GaussianState(m @ m.T * 0.05)
    # the variable, and the variable pulled back to R^2 under a state there
    cases = [(f, rho), (f.pullback(rng.normal(size=(3, 2))), GaussianState(np.diag([0.04, 0.01])))]
    ratios = [1.0, 0.3, 0.01]
    for g, state in cases:
        # at dispersion ratios, from one factorization; the default is ratio 1.0
        expected = [_reference_closed_form(g, state, r) for r in ratios]
        for h, gain in ((g, 1.0), (amplify(g, 0.1), 10.0)):
            values = closed_form_average(h, state, ratios)
            assert values == [gain * v for v in expected], h
            assert closed_form_average(h, state) == values[:1], h
            assert [closed_form_average(h, state, [r])[0] for r in ratios] == values, h


class _NoClosedForm(Functional):
    """A variable that declares no closed-form average."""

    dim = 2


def test_functional_without_closed_form_raises():
    # the closed form is part of the variable contract, as eval_batch is
    rho = GaussianState(np.diag([0.03, 0.02]))
    f = _NoClosedForm()
    with pytest.raises(NotImplementedError):
        closed_form_average(f, rho)
    with pytest.raises(NotImplementedError):
        closed_form_average(amplify(f, 0.1), rho)


@pytest.mark.parametrize("family", sorted(CONFIG_SCHEMA["functional"]["family"]))
@pytest.mark.parametrize("dim", [1, 4])
def test_every_config_family_has_a_closed_form(family, dim):
    # the sweep's classical column is the closed form, with no Monte-Carlo fallback
    operator = {"random": {"seed": 3}}
    spec = {"family": family, "operator": operator, "quadratic": operator,
            "quartic": {"operator": {"random": {"seed": 4}}, "coeff": 0.5}}
    f = build_functional(spec, dim)
    rho = build_state({"shape": "random", "seed": 5}, dim, 0.1)
    [value] = closed_form_average(f, rho)
    assert type(value) is float and math.isfinite(value), (family, value)


def test_even_polynomial_closed_form_integrates_term_by_term():
    rng = np.random.default_rng(72)
    m = rng.normal(size=(3, 3))
    rho = GaussianState(m @ m.T * 0.05)
    f = EvenPolynomial({
        2: SymmetricForm.from_matrix(rng.normal(size=(3, 3))),
        4: SymmetricForm.from_quadratic_power(rng.normal(size=(3, 3)), 2, 0.5),
        6: SymmetricForm.from_dense(rng.normal(size=(3,) * 6)),
    })
    expected = sum(gaussian_integral_multilinear(q, rho.covariance) for q in f.terms.values())
    assert f.closed_form(rho) == [expected]
    assert closed_form_average(f, rho) == [expected]
    # under r B the order-2j term scales by r^j; ratio 1.0 gives the bits above
    ratios = [1.0, 0.3, 0.01]
    values = f.closed_form(rho, ratios)
    assert values[0] == expected
    assert amplify(f, 0.1).closed_form(rho, ratios) == \
        [amplify(f, 0.1).closed_form(rho, [r])[0] for r in ratios]
    for r, value in zip(ratios, values):
        terms = [gaussian_integral_multilinear(q, r * rho.covariance) for q in f.terms.values()]
        assert abs(value - sum(terms)) <= 1e-13 * sum(map(abs, terms)), r


def test_noninjectivity_witness_pair():
    # same quantum prediction, classically distinct: gap bounded by 3 a^3 alpha^3
    a = 1.0
    fq, fs = Quadratic([[a]]), SinQuad([[a]])
    for alpha in (0.1, 0.05, 0.01):
        rho = GaussianState(np.array([[alpha]]))
        d = t_state(rho, alpha)
        assert quantum_average(d, t_variable(fq)) == quantum_average(d, t_variable(fs))
        gap = abs(closed_form_average(fq, rho)[0] - closed_form_average(fs, rho)[0])
        assert 0.0 < gap <= 3.0 * a ** 3 * alpha ** 3


def test_pure_state_amplified_average_diag():
    report = pure_state_experiment(np.array([1.0, 0.0]), 0.05, np.diag([2.0, 5.0]),
                                   50_000, seed=17)
    amp = _check(report, "amplified_average")
    assert abs(amp.statistic - 2.0) <= 4.0 * amp.stderr
    assert _check(report, "off_axis_zero").passed
    assert report["passed"]


def test_pure_state_amplified_average_flip_operator():
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    report = pure_state_experiment(psi, 0.05, [[0.0, 1.0], [1.0, 0.0]], 50_000, seed=19)
    amp = _check(report, "amplified_average")
    assert amp.reference == pytest.approx(1.0, rel=1e-12)
    assert abs(amp.statistic - 1.0) <= 4.0 * amp.stderr
    assert _check(report, "span").passed
    assert _check(report, "covariance_shape").passed


def test_pure_state_requires_unit_vector():
    with pytest.raises(ValueError):
        pure_state_experiment(np.array([1.0, 1.0]), 0.05, np.eye(2), 5000, seed=3)


@pytest.mark.parametrize("alpha", [1e-100, 1e-200, 1e-300])
def test_pure_state_covariance_gate_holds_at_tiny_alpha(alpha):
    # the band is taken from D = B / alpha, whose squares do not underflow
    report = pure_state_experiment(np.array([0.6, 0.8]), alpha, np.eye(2), 10_000, seed=1)
    assert _check(report, "covariance_shape").statistic == 1.0
    assert report["passed"]


def test_pure_state_rejects_a_covariance_that_underflows_to_zero():
    # alpha psi psi^T rounds to 0 entrywise, so the state has no factor column
    with pytest.raises(ValueError, match="direction must be nonzero"):
        pure_state_experiment(np.full(4, 0.5), 5e-324, np.eye(4), 5000, seed=3)


def test_sub_alpha_rejection_and_energy_bound():
    alpha = 0.01
    report = sub_alpha_states(alpha, shrink=alpha, dim=4,
                              hamiltonian=np.diag([1.0, 2.0, 3.0, 4.0]),
                              n_samples=50_000, seed=23)
    assert report["dispersion"] == pytest.approx(alpha * alpha, rel=1e-12)
    assert _check(report, "exact_map_accepts").statistic == 0.0
    assert _check(report, "exact_map_accepts").passed
    assert _check(report, "energy").passed
    assert abs(_check(report, "extended_trace").statistic - 1.0) <= 1e-12
    assert report["passed"]


def test_sub_alpha_boundary_acceptance():
    report = sub_alpha_states(0.01, shrink=1.0, dim=3, hamiltonian=np.eye(3),
                              n_samples=5_000, seed=29)
    assert _check(report, "exact_map_accepts").statistic == 1.0
    assert report["passed"]


@pytest.mark.parametrize("shrink, accepted", [
    (1.0 - 0.5 * EXACT_CLASS_RTOL, 1.0),
    (1.0 - 2.0 * EXACT_CLASS_RTOL, 0.0),
])
def test_sub_alpha_expectation_follows_the_class_tolerance(shrink, accepted):
    # the expectation and t_state read one class tolerance, so the gate
    # passes on both sides of its edge
    report = sub_alpha_states(0.01, shrink=shrink, dim=3, hamiltonian=np.eye(3),
                              n_samples=5_000, seed=29)
    check = _check(report, "exact_map_accepts")
    assert (check.statistic, check.reference) == (accepted, accepted)
    assert report["passed"]


def test_nongaussian_product_laplace():
    state = SecondMomentState.product_laplace(np.full(4, 0.025))
    rng = np.random.default_rng(31)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    report = nongaussian_experiment(state, a, 100_000, seed=31)
    assert _check(report, "quadratic").passed
    assert _check(report, "quartic").passed
    assert report["passed"]


@pytest.mark.parametrize("seed", [31, 1, 2, 3, 4])
def test_product_laplace_quartic_mean_matches_its_exact_value(seed):
    # E |x|^4 = sum_i E x_i^4 + sum_(i != j) v_i v_j = (sum v)^2 + 5 sum v^2,
    # since a Laplace coordinate of variance v has E x^4 = 6 v^2; the
    # variances are those of configs/nongaussian_laplace.json
    v = np.full(4, 0.025)
    report = nongaussian_experiment(SecondMomentState.product_laplace(v), np.eye(4), 100_000, seed)
    quartic = _check(report, "quartic")
    exact = v.sum() ** 2 + 5.0 * np.sum(v ** 2)
    assert exact == pytest.approx(0.0225, rel=1e-15)
    assert abs(quartic.statistic - exact) <= 4.0 * quartic.stderr


def test_nongaussian_uniform_sphere():
    r = 0.3
    state = SecondMomentState.uniform_sphere(r, 4)
    report = nongaussian_experiment(state, np.eye(4), 50_000, seed=37)
    # (A psi, psi) is exactly r^2 on the sphere for A = I
    assert _check(report, "quadratic").reference == pytest.approx(r * r, rel=1e-12)
    assert _check(report, "quadratic").passed
    assert _check(report, "quartic").passed


def test_nongaussian_quadratic_gate_fails_at_a_tiny_dispersion(monkeypatch):
    # the round-off floor is relative: an absolute 1e-12 would swallow a
    # 10-sigma miss when every value is of order 1e-200
    state = experiments.build_second_moment_state({"sampler": "product-laplace"}, 3, 1e-200)
    a = np.eye(3)
    expected = trace_product(state.covariance, a)
    real = experiments.mc_average

    def ten_sigmas_off(f, state, n_samples, seed, ratios=(1.0,)):
        [(mean, stderr)] = real(f, state, n_samples, seed, ratios)
        return [(expected + 10.0 * stderr if isinstance(f, Quadratic) else mean, stderr)]

    monkeypatch.setattr(experiments, "mc_average", ten_sigmas_off)
    quadratic = _check(nongaussian_experiment(state, a, 5000, seed=1), "quadratic")
    assert quadratic.stderr > 0.0
    assert not quadratic.passed


def test_laplace_sample_covariance_matches_target():
    v = np.array([0.01, 0.02, 0.03])
    state = SecondMomentState.product_laplace(v)
    x = _drawn_rows(41, 200_000, state.fill, state.dim)
    cov_hat = x.T @ x / len(x)
    target = np.diag(v)
    # Laplace fourth moment is 6 v^2, so var of the diagonal estimator is 5 v^2 / N
    for i in range(3):
        band = 4.0 * math.sqrt(5.0 * v[i] ** 2 / len(x))
        assert abs(cov_hat[i, i] - v[i]) <= band
    off = np.abs(cov_hat - np.diag(np.diag(cov_hat))).max()
    assert off <= 4.0 * math.sqrt(v.max() ** 2 / len(x))


def test_finite_qm_demo_end_to_end():
    cfg = ExperimentConfig(dim=3, alpha_grid=(0.05,),
                           functional_spec={"family": "quadratic", "operator": "identity"},
                           state_spec={"shape": "isotropic"},
                           mc_samples=50_000, seed=43)
    report = finite_qm_demo(cfg)
    assert all(c.passed for c in report["checks"] if c.name.startswith("pure_"))
    assert _check(report, "mixed_quadratic").passed
    ho = _check(report, "higher_order")
    assert relative_error(ho.statistic, ho.reference) <= 1e-10
    assert report["passed"]


def test_finite_qm_pure_branch_reproduces_direct_run():
    from cqlab.experiments import derive_seed

    cfg = ExperimentConfig(dim=2, alpha_grid=(0.05,),
                           functional_spec={"family": "quadratic", "operator": "identity"},
                           state_spec={"shape": "isotropic"},
                           mc_samples=20_000, seed=61)
    demo = finite_qm_demo(cfg)
    psi = np.ones(2) / math.sqrt(2.0)
    direct = pure_state_experiment(psi, 0.05, np.eye(2), 20_000,
                                   seed=derive_seed(61, 10))
    assert [c for c in demo["checks"] if c.name.startswith("pure_")] == \
        [replace(c, name=f"pure_{c.name}") for c in direct["checks"]]


def test_higher_order_check_exactness():
    cfg = ExperimentConfig(dim=4, alpha_grid=(0.08,),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "random", "seed": 11},
                           mc_samples=50_000, seed=47, order=2)
    report = higher_order_check(cfg)
    assert report["relative_error"] <= 1e-10
    assert _check(report, "mc_overlay").passed
    assert report["passed"]


def test_moments_check_identity_spots():
    cfg = ExperimentConfig(dim=4, alpha_grid=(0.1,),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "isotropic"},
                           mc_samples=100_000, seed=53, order=2)
    report = moments_check(cfg)
    assert _check(report, "repeated_axis").statistic == 3.0
    assert _check(report, "split_axes").statistic == 1.0
    assert _check(report, "moment").passed
    assert report["passed"]


def test_moments_check_refuses_a_tensor_over_the_dense_cap(monkeypatch):
    # 17^6 entries are over the cap; the refusal comes before the form is drawn
    def no_draw(*args):
        raise AssertionError("moments-check drew its form")

    monkeypatch.setattr(experiments, "substream", no_draw)
    cfg = ExperimentConfig(dim=17, alpha_grid=(0.1,), functional_spec={"family": "quadratic"},
                           state_spec={"shape": "isotropic"}, mc_samples=1000, seed=1, order=3)
    with pytest.raises(SizeError, match="order 6 at dim 17 is too large"):
        moments_check(cfg)


def test_chebyshev_experiment_bounds_hold():
    cfg = ExperimentConfig(dim=4, alpha_grid=(0.1, 0.01, 0.001),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "isotropic"},
                           mc_samples=50_000, seed=59)
    report = chebyshev_experiment(cfg)
    assert len(report["rows"]) == 9
    assert report["passed"]


def test_build_state_shapes_have_requested_dispersion():
    for spec in ({"shape": "isotropic"},
                 {"shape": "diagonal", "weights": [1.0, 2.0, 3.0]},
                 {"shape": "rank1", "psi": [1.0, 2.0, 2.0]},
                 # psi @ psi overflows, underflows to 0, or is subnormal
                 {"shape": "rank1", "psi": [1e200, 1e200, 0.0]},
                 {"shape": "rank1", "psi": [1e-200, 1e-200, 0.0]},
                 {"shape": "rank1", "psi": [1e-160, 1e-160, 0.0]},
                 {"shape": "random", "seed": 8}):
        rho = build_state(spec, 3, 0.07)
        assert rho.dispersion() == pytest.approx(0.07, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 7, 64])
@pytest.mark.parametrize("shape", ["isotropic", "diagonal", "rank1", "random"])
def test_build_state_covariance_is_linear_in_alpha(shape, dim):
    # the law a sweep's shared draw relies on: B(alpha) = alpha * B(1)
    spec = {"shape": shape, "weights": list(np.linspace(0.5, 3.0, dim)),
            "psi": list(np.linspace(1.0, -2.0, dim)), "seed": 8}
    unit = build_state(spec, dim, 1.0).covariance
    for alpha in (0.1, 0.03, 1e-3, 7e-6, 2.5):
        scaled = alpha * unit
        ulps = np.abs(build_state(spec, dim, alpha).covariance - scaled) / np.spacing(np.abs(scaled))
        assert ulps.max() <= 4.0, (alpha, ulps.max())


def test_builder_streams_are_not_sample_chunks():
    # a seed shared by a builder and a run (31 for both in
    # configs/nongaussian_laplace.json) must not hand the builder the
    # normals of one of the run's sample chunks
    seed, dim = 31, 3
    # row 0 of each of 8 chunks
    firsts = _drawn_rows(seed, 8 * DEFAULT_CHUNK_SIZE,
                         lambda rng, m: rng.standard_normal((m, dim * dim)), dim * dim
                         )[::DEFAULT_CHUNK_SIZE]
    operator = experiments.build_operator({"random": {"seed": seed}}, dim)
    covariance = build_state({"shape": "random", "seed": seed}, dim, 1.0).covariance
    for chunk, row in enumerate(firsts):
        m = row.reshape(dim, dim)
        assert not np.allclose(operator, symmetric_from_entries(m)), chunk
        assert not np.allclose(covariance, m @ m.T / np.trace(m @ m.T)), chunk
    # each builder reads its own reserved tag
    m = substream(seed, experiments.OPERATOR_TAG).standard_normal((dim, dim))
    assert np.array_equal(operator, symmetric_from_entries(m))
    m = substream(seed, experiments.STATE_TAG).standard_normal((dim, dim))
    np.testing.assert_allclose(covariance, m @ m.T / np.trace(m @ m.T), rtol=1e-12)


def test_build_state_rejects_non_finite_weights():
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_state({"shape": "diagonal", "weights": [1.0, bad]}, 2, 0.1)
    # finite weights whose sum overflows would scale to a zero covariance
    with pytest.raises(ConfigError, match="finite"):
        build_state({"shape": "diagonal", "weights": [1e308, 1e308, 0.0]}, 3, 0.1)



def test_build_state_takes_diagonal_weights_with_a_subnormal_sum():
    # alpha * w / sum(w) would round 1e-321 / 1e-320 to 0.0998...
    rho = build_state({"shape": "diagonal", "weights": [1e-320, 0.0]}, 2, 0.1)
    assert rho.dispersion() == 0.1
    assert np.array_equal(rho.covariance, np.diag([0.1, 0.0]))


def test_separated_needs_a_nonzero_gap_when_the_stderr_is_zero():
    assert separated("s", 1.0, 0.0, 0.0).passed
    assert not separated("s", 0.0, 0.0, 0.0).passed
    assert not separated("s", 2.5, 2.5, 0.0).passed

_HELPER_ARGS = [
    (within_sigmas, ("w", 1.0, 1.0, 0.1, 0.0)),
    (relatively_exact, ("r", 1.0, 1.0, 1e-10)),
    (bound_plus_noise, ("b", 0.1, 0.5, 0.01, (1.0, 2.0))),
    (in_range, ("i", 2.0, 1.9, 2.1)),
    (separated, ("s", 1.0, 0.0, 0.1)),
    (measured, ("m", 1.0, 0.5, 0.1)),
]


def _with_bad(args: tuple, bad: float):
    """Each copy of args with one number, possibly inside a tuple, set to bad."""
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            for j in range(len(arg)):
                yield args[:i] + (arg[:j] + (bad,) + arg[j + 1:],) + args[i + 1:]
        elif isinstance(arg, float):
            yield args[:i] + (bad,) + args[i + 1:]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("helper, args", _HELPER_ARGS)
def test_check_helpers_fail_on_non_finite_inputs(helper, args, bad):
    assert helper(*args).passed
    for bad_args in _with_bad(args, bad):
        assert not helper(*bad_args).passed, bad_args
