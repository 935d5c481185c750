from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cqlab.correspondence import quantum_average, t_state, t_variable
from cqlab.errors import ConfigError
from cqlab.experiments import (
    ExperimentConfig,
    SecondMomentState,
    alpha_sweep,
    analytic_average,
    bound_plus_noise,
    build_state,
    chebyshev_experiment,
    closed_form_average,
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
    MAX_FORM_ORDER,
    CosQuadMinusOne,
    EvenPolynomial,
    Quadratic,
    SinQuad,
    SymmetricForm,
    amplify,
)
from cqlab.gaussian import make_gaussian, mean_stderr, pure_state_measure, substream
from cqlab.hilbert import symmetric_from_entries, trace_product
from cqlab.pairings import double_factorial


def _check(report: dict, name: str):
    return next(c for c in report["checks"] if c.name == name)

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
    rho = make_gaussian(b)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    mean, stderr = mc_average(Quadratic(a), rho, 100_000, seed=3)
    assert abs(mean - trace_product(b, a)) <= 4.0 * stderr


def test_mc_average_cos_matches_characteristic_function():
    rho = make_gaussian(np.array([[0.1]]))
    two = complex(1.0, -0.2) ** -0.5
    assert two.real - 1.0 == pytest.approx(COS_ORACLE_A1_ALPHA01, rel=1e-12)
    mean, stderr = mc_average(CosQuadMinusOne([[1.0]]), rho, 200_000, seed=5)
    assert abs(mean - COS_ORACLE_A1_ALPHA01) <= 4.0 * stderr


def test_mc_average_sin_matches_characteristic_function():
    rho = make_gaussian(np.array([[0.1]]))
    mean, stderr = mc_average(SinQuad([[1.0]]), rho, 200_000, seed=5)
    assert abs(mean - SIN_ORACLE_A1_ALPHA01) <= 4.0 * stderr


def test_mc_average_independent_of_workers():
    rho = make_gaussian(np.eye(3) * 0.2)
    f = Quadratic(np.eye(3))
    assert mc_average(f, rho, 30_000, seed=9, workers=1) == \
        mc_average(f, rho, 30_000, seed=9, workers=8)


_STREAM_STATES = {
    "gaussian-dim16": lambda: build_state({"shape": "random", "seed": 3}, 16, 0.2),
    "pure-rank1": lambda: pure_state_measure(np.linspace(1.0, 2.0, 16), 0.2),
    "product-laplace": lambda: SecondMomentState.product_laplace(np.linspace(0.01, 0.02, 16)),
    "uniform-sphere": lambda: SecondMomentState.uniform_sphere(0.4, 16),
}


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("state_name", list(_STREAM_STATES))
def test_mc_average_streams_the_same_bits_as_a_full_batch(state_name, workers):
    state = _STREAM_STATES[state_name]()
    a = symmetric_from_entries(substream(4, 0).standard_normal((16, 16)))
    count = 3 * 4096 + 17
    batch = state.sample(21, count, workers=workers)
    for f in (CosQuadMinusOne(a),
              EvenPolynomial({4: SymmetricForm.from_quadratic_power(np.eye(16), 2, 1.0)})):
        assert mc_average(f, state, count, 21, workers=workers) == \
            mean_stderr(f.eval_batch(batch.samples))


def test_mc_average_memory_is_bounded_by_the_values():
    dim, count = 64, 200_000
    rho = make_gaussian(np.eye(dim) / dim)
    tracemalloc.start()
    try:
        mc_average(Quadratic(np.eye(dim)), rho, count, seed=4, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < count * dim * 8 / 4


def test_analytic_average_quadratic_exact():
    rng = np.random.default_rng(11)
    alpha = 0.05
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    b *= alpha / np.trace(b)
    rho = make_gaussian(b)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    d = b / alpha
    assert analytic_average(Quadratic(a), rho, 2) == pytest.approx(
        alpha * trace_product(d, a), rel=1e-12)


def test_analytic_average_polynomial_matches_mc():
    rng = np.random.default_rng(12)
    b = np.diag([0.08, 0.12])
    rho = make_gaussian(b)
    f = EvenPolynomial({
        2: SymmetricForm.from_matrix(symmetric_from_entries(rng.normal(size=(2, 2)))),
        4: SymmetricForm.from_quadratic_power(
            symmetric_from_entries(rng.normal(size=(2, 2))), 2, 1.0),
    })
    analytic = analytic_average(f, rho, 4)
    mean, stderr = mc_average(f, rho, 200_000, seed=13)
    assert abs(mean - analytic) <= 4.0 * stderr


def test_analytic_average_sin_truncation_error_is_cubic():
    a = 1.0
    for alpha in (0.1, 0.01):
        rho = make_gaussian(np.array([[alpha]]))
        f = SinQuad([[a]])
        trunc = analytic_average(f, rho, 2)
        assert trunc == pytest.approx(a * alpha, rel=1e-12)
        closed = closed_form_average(f, rho)
        # leading error term is -(5/2) a^3 alpha^3
        assert abs(closed - trunc) <= 3.0 * a ** 3 * alpha ** 3


def test_closed_form_cos_truncation_error_is_quartic():
    a = 1.0
    for alpha in (0.1, 0.03, 0.01):
        rho = make_gaussian(np.array([[alpha]]))
        f = CosQuadMinusOne([[a]])
        closed = closed_form_average(f, rho)
        trunc = analytic_average(f, rho, 4)
        assert trunc == pytest.approx(-1.5 * a * a * alpha * alpha, rel=1e-12)
        # next term in the characteristic-function series is (35/8) a^4 alpha^4
        assert abs(closed - trunc) <= 1.01 * (35.0 / 8.0) * a ** 4 * alpha ** 4


def test_closed_form_matches_mc_at_higher_dimension():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    b *= 0.05 / np.trace(b)
    rho = make_gaussian(b)
    a = symmetric_from_entries(0.3 * rng.normal(size=(3, 3)))
    for f in (SinQuad(a), CosQuadMinusOne(a)):
        closed = closed_form_average(f, rho)
        mean, stderr = mc_average(f, rho, 300_000, seed=15)
        assert abs(mean - closed) <= 4.0 * stderr


def test_sweep_quadratic_is_noise_limited():
    cfg = _grid_cfg(3, {"family": "quadratic", "operator": {"random": {"seed": 2}}},
                    {"shape": "random", "seed": 4})
    res = alpha_sweep(cfg)
    assert res.noise_limited
    assert res.fitted_slope is None
    assert all(r.below_noise for r in res.rows)


def test_sweep_cos_remainder_order_two():
    cfg = _grid_cfg(1, {"family": "cos-quad-minus-one", "operator": {"matrix": [[1.0]]}},
                    {"shape": "isotropic"})
    res = alpha_sweep(cfg)
    assert res.fitted_slope == pytest.approx(2.0, abs=0.1)


def test_sweep_sin_remainder_order_three():
    cfg = _grid_cfg(1, {"family": "sin-quad", "operator": {"matrix": [[1.0]]}},
                    {"shape": "isotropic"})
    res = alpha_sweep(cfg)
    assert res.fitted_slope == pytest.approx(3.0, abs=0.15)


def test_sweep_requires_wide_grid():
    cfg = ExperimentConfig(dim=1, alpha_grid=(0.1, 0.05, 0.02),
                           functional_spec={"family": "quadratic"},
                           state_spec={"shape": "isotropic"}, mc_samples=1000, seed=1)
    with pytest.raises(ConfigError):
        alpha_sweep(cfg)


def test_amplified_averages_converge_monotonically():
    # |<f_alpha> - Tr D A| must shrink along the grid (analytic route)
    a = 1.0
    f = CosQuadMinusOne([[a]])
    gaps = []
    for alpha in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        rho = make_gaussian(np.array([[alpha]]))
        d = t_state(rho, alpha)
        amplified_classical = closed_form_average(f, rho) / alpha
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
    rho = make_gaussian(b)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    lhs = closed_form_average(Quadratic(a), rho)
    rhs = rho.dispersion() * quantum_average(t_state_extended(rho), a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# (kind, c_m (2m)!) of every nonzero Taylor form at orders 1..8
_TAYLOR_REFERENCE = {
    Quadratic: {2: ("dense", 2)},
    SinQuad: {2: ("dense", 2), 6: ("pairing", -120)},
    CosQuadMinusOne: {4: ("pairing", -12), 8: ("pairing", 1680)},
}


def _reference_closed_form(f, rho):
    if type(f) is Quadratic:
        return trace_product(rho.covariance, f.operator)
    fmat = rho.sampling_matrix()
    mu = np.linalg.eigvalsh(fmat.T @ f.operator @ fmat)
    char = complex(np.prod((1.0 - 2.0j * mu) ** -0.5))
    return float(char.imag) if type(f) is SinQuad else float(char.real) - 1.0


@pytest.mark.parametrize("family", list(_TAYLOR_REFERENCE), ids=lambda c: c.__name__)
def test_quadratic_form_families_match_reference_bit_for_bit(family):
    rng = np.random.default_rng(71)
    f = family(rng.normal(size=(3, 3)))
    for k in range(1, MAX_FORM_ORDER + 1):
        form = f.taylor_form(k)
        kind, scale = _TAYLOR_REFERENCE[family].get(k, ("zero", 0))
        assert (form.kind, form.order, form.dim) == (kind, k, 3)
        if kind == "dense":
            assert form.coeff == 0.0
            assert np.array_equal(form.tensor, scale * f.operator)
        elif kind == "pairing":
            assert form.npairs == k // 2
            assert form.coeff == scale / double_factorial(k - 1)
            assert np.array_equal(form.matrix, f.operator)
        else:
            assert form.coeff == 0.0 and form.tensor is None and form.matrix is None
    m = rng.normal(size=(3, 3))
    rho = make_gaussian(m @ m.T * 0.05)
    assert closed_form_average(f, rho) == _reference_closed_form(f, rho)
    assert closed_form_average(amplify(f, 0.1), rho) == 10.0 * _reference_closed_form(f, rho)


def test_noninjectivity_witness_pair():
    # same quantum prediction, classically distinct: gap bounded by 3 a^3 alpha^3
    a = 1.0
    fq, fs = Quadratic([[a]]), SinQuad([[a]])
    for alpha in (0.1, 0.05, 0.01):
        rho = make_gaussian(np.array([[alpha]]))
        d = t_state(rho, alpha)
        assert quantum_average(d, t_variable(fq)) == quantum_average(d, t_variable(fs))
        gap = abs(closed_form_average(fq, rho) - closed_form_average(fs, rho))
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


def test_nongaussian_product_laplace():
    state = SecondMomentState.product_laplace(np.full(4, 0.025))
    rng = np.random.default_rng(31)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    report = nongaussian_experiment(state, a, 100_000, seed=31)
    assert _check(report, "quadratic").passed
    assert _check(report, "quartic").passed
    assert report["passed"]


def test_nongaussian_uniform_sphere():
    r = 0.3
    state = SecondMomentState.uniform_sphere(r, 4)
    report = nongaussian_experiment(state, np.eye(4), 50_000, seed=37)
    # (A psi, psi) is exactly r^2 on the sphere for A = I
    assert _check(report, "quadratic").reference == pytest.approx(r * r, rel=1e-12)
    assert _check(report, "quadratic").passed
    assert _check(report, "quartic").passed


def test_laplace_sample_covariance_matches_target():
    v = np.array([0.01, 0.02, 0.03])
    state = SecondMomentState.product_laplace(v)
    batch = state.sample(seed=41, count=200_000)
    x = batch.samples
    cov_hat = x.T @ x / batch.count
    target = np.diag(v)
    # Laplace fourth moment is 6 v^2, so var of the diagonal estimator is 5 v^2 / N
    for i in range(3):
        band = 4.0 * math.sqrt(5.0 * v[i] ** 2 / batch.count)
        assert abs(cov_hat[i, i] - v[i]) <= band
    off = np.abs(cov_hat - np.diag(np.diag(cov_hat))).max()
    assert off <= 4.0 * math.sqrt(v.max() ** 2 / batch.count)


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
                 {"shape": "random", "seed": 8}):
        rho = build_state(spec, 3, 0.07)
        assert rho.dispersion() == pytest.approx(0.07, rel=1e-9)


def test_build_state_rejects_non_finite_weights():
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_state({"shape": "diagonal", "weights": [1.0, bad]}, 2, 0.1)


_HELPER_ARGS = [
    (within_sigmas, ("w", 1.0, 1.0, 0.1, 4.0, 0.0)),
    (relatively_exact, ("r", 1.0, 1.0, 1e-10)),
    (bound_plus_noise, ("b", 0.1, 0.5, 0.01, 4.0, (1.0, 2.0))),
    (in_range, ("i", 2.0, 1.9, 2.1)),
    (separated, ("s", 1.0, 0.0, 0.1, 4.0)),
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
