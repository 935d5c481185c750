"""Calibration of the Monte-Carlo error bars: over a fixed block of seeds,
the standardized errors z = (mean - exact) / stderr of `mc_average` must
follow N(0, 1) (simulation-based calibration: Cook, Gelman & Rubin 2006;
Talts et al. 2018, arXiv:1804.06788).

Each case is a variable, a state and its exact averages.  On a Gaussian
state the cases sit at a rank below 2 * COPIES (each draw evaluated once)
and at or above it (each draw evaluated as COPIES signed-permutation
copies): the sweep rows (sin, cos, quadratic) at two dispersion ratios, the
`moments-check` statistic (the one-term polynomial of a dense order-4 form)
and the `higher-order` overlay (a quadratic + quartic polynomial).  The
quadratic of A = I on an isotropic dim-8 state is invariant under every
signed permutation, so there its copies are equal: a stderr that counted
each copy as a draw would be half the true one.  The `nongaussian` states
(product-Laplace and uniform-sphere draws, each evaluated once) take a
quadratic and quartics (M psi, psi)^2, whose exact averages are written
out below, since `closed_form` is the Gaussian one.  The amplified
pure-state mean is (A psi, psi) / alpha on the rank-1 state
alpha psi (x) psi of the shipped `pure_state.json`, whose exact average is
(A psi, psi): `pure_state_experiment` reports it from chunks it draws and
reduces itself, so its check runs the experiment as well as `mc_average`.

The seeds, sample count and band below were fixed before any result was
seen.  A case that fails is a finding about the estimator: never re-seed,
shrink or drop one to make it pass.  Every defect of `DEFECTS` must make
the test fail.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from cqlab.cli import load_config
from cqlab.experiments import (build_functional, build_operator, build_second_moment_state,
                               build_state, pure_state_experiment)
from cqlab.functionals import EvenPolynomial, Quadratic, SymmetricForm, amplify
from cqlab.gaussian import (COPIES, GaussianState, Moments, copy_steps, draw_chunked,
                            mc_average, pure_state_measure, substream)
from cqlab.hilbert import trace_product

SEEDS = range(1000, 1200)
SAMPLES = 2048  # evaluations per run: 512 draws of COPIES copies at rank >= 2 * COPIES
SIGMAS = 4.0
# the excess kurtosis of z the band allows: a heavy-tailed f at small N
# correlates a run's mean with its own stderr, which widens the spread of
# mean(z^2) beyond its chi-square law
EXCESS_KURTOSIS = 2.0


def sd_band(seeds: int) -> tuple[float, float]:
    """The band of sqrt(mean(z^2)) over `seeds` standard normal z: the
    SIGMAS-sigma quantiles of chi^2_seeds / seeds (Wilson-Hilferty), each
    side's distance from 1 widened by sqrt((2 + EXCESS_KURTOSIS) / 2), the
    ratio of the standard deviation of a mean square at that kurtosis to a
    normal one's."""
    step = math.sqrt(2.0 / (9.0 * seeds))
    lo, hi = ((1.0 - 2.0 / (9.0 * seeds) + k * step) ** 3 for k in (-SIGMAS, SIGMAS))
    widen = math.sqrt((2.0 + EXCESS_KURTOSIS) / 2.0)
    return math.sqrt(1.0 - (1.0 - lo) * widen), math.sqrt(1.0 + (hi - 1.0) * widen)


def _operator(seed: int) -> dict:
    return {"random": {"seed": seed}}


def _gaussian_case(f, state: GaussianState, ratios):
    return f, state, ratios, f.closed_form(state, ratios)


def _sweep_case(family: str, dim: int):
    f = build_functional({"family": family, "operator": _operator(3)}, dim)
    return _gaussian_case(f, build_state({"shape": "random", "seed": 5}, dim, 0.3), (1.0, 0.1))


def _moments_case(dim: int):
    # moments-check: the state has trace dim, the form standard normal entries
    form = SymmetricForm.from_dense(substream(7, 0).standard_normal((dim,) * 4))
    return _gaussian_case(EvenPolynomial({4: form}),
                          build_state({"shape": "random", "seed": 5}, dim, dim), (1.0,))


def _overlay_case(dim: int):
    f = build_functional({"family": "even-polynomial", "quadratic": _operator(4),
                          "quartic": {"operator": _operator(6), "coeff": 0.5}}, dim)
    return _gaussian_case(f, build_state({"shape": "random", "seed": 5}, dim, 0.1), (1.0,))


# the `nongaussian` states of the calibration: dim 4 at dispersion 0.1
NONGAUSSIAN_DIM, NONGAUSSIAN_ALPHA = 4, 0.1


def _nongaussian_case(sampler: str, term: str, operator):
    """A quadratic (A psi, psi) or quartic (M psi, psi)^2 of `operator`, the
    identity or a random one, on a `nongaussian` state, with its exact
    average.  The quadratic's is Tr BA on any state of covariance B.  On
    independent Laplace coordinates of variances v_i, the quartic's adds to
    the Gaussian 2 Tr BMBM + (Tr BM)^2 each coordinate's fourth cumulant,
    3 v_i^2, times M_ii^2.  On the sphere of radius R in R^d it is
    R^4 (2 Tr M^2 + (Tr M)^2) / (d (d + 2))."""
    state = build_second_moment_state({"sampler": sampler}, NONGAUSSIAN_DIM, NONGAUSSIAN_ALPHA)
    b = state.covariance
    if term == "quadratic":
        f = build_functional({"family": "quadratic", "operator": operator}, state.dim)
        return f, state, (1.0,), [trace_product(b, f.operator)]
    m = build_functional({"family": "quadratic", "operator": operator}, state.dim).operator
    f = build_functional({"family": "even-polynomial", "quartic": {"operator": operator}},
                         state.dim)
    if sampler == "product-laplace":
        bm = b @ m
        exact = (2.0 * np.trace(bm @ bm) + np.trace(bm) ** 2
                 + np.sum(3.0 * np.diag(b) ** 2 * np.diag(m) ** 2))
    else:
        d = state.dim
        exact = NONGAUSSIAN_ALPHA ** 2 * (2.0 * np.trace(m @ m) + np.trace(m) ** 2) / (d * (d + 2))
    return f, state, (1.0,), [float(exact)]


# the shipped pure-state run: psi, the operator A and the first grid alpha
PURE_STATE = load_config(Path(__file__).resolve().parents[1] / "configs" / "pure_state.json")
PURE_PSI = np.array(PURE_STATE.state_spec["psi"])
PURE_OPERATOR = build_operator(PURE_STATE.functional_spec["operator"], PURE_STATE.dim)
PURE_ALPHA = PURE_STATE.alpha_grid[0]


def _pure_state_case():
    """The amplified variable (A psi, psi) / alpha on the rank-1 state
    alpha psi (x) psi, whose exact average is the quantum one, (A psi, psi)."""
    return (amplify(Quadratic(PURE_OPERATOR), PURE_ALPHA), pure_state_measure(PURE_PSI, PURE_ALPHA),
            (1.0,), [float(PURE_PSI @ PURE_OPERATOR @ PURE_PSI)])


def pure_state_amplified_average(f, state, n_samples: int, seed: int, ratios):
    """The amplified_average check of `pure_state_experiment` on the shipped
    pure-state inputs, the variable and state of `_pure_state_case`, as one
    (mean, stderr): the experiment draws and reduces its own chunks."""
    report = pure_state_experiment(PURE_PSI, PURE_ALPHA, PURE_OPERATOR, n_samples, seed)
    check = next(c for c in report["checks"] if c.name == "amplified_average")
    return [(check.statistic, check.stderr)]


# name: () -> (variable, state, dispersion ratios, exact averages)
CASES = {
    "quadratic-identity-isotropic-dim8": lambda: _gaussian_case(
        Quadratic(np.eye(8)), build_state({"shape": "isotropic"}, 8, 0.3), (1.0,)),
    **{f"{family}-rank{dim}": functools.partial(_sweep_case, family, dim)
       for family in ("sin-quad", "cos-quad-minus-one", "quadratic") for dim in (4, 16)},
    "moments-check-rank4": functools.partial(_moments_case, 4),
    "moments-check-rank8": functools.partial(_moments_case, 8),
    "higher-order-overlay-rank4": functools.partial(_overlay_case, 4),
    "higher-order-overlay-rank12": functools.partial(_overlay_case, 12),
    "pure-state-amplified": _pure_state_case,
    "product-laplace-quadratic": functools.partial(
        _nongaussian_case, "product-laplace", "quadratic", _operator(3)),
    "product-laplace-quartic-identity": functools.partial(
        _nongaussian_case, "product-laplace", "quartic", "identity"),
    "product-laplace-quartic": functools.partial(
        _nongaussian_case, "product-laplace", "quartic", _operator(6)),
    "uniform-sphere-quadratic": functools.partial(
        _nongaussian_case, "uniform-sphere", "quadratic", _operator(3)),
    "uniform-sphere-quartic": functools.partial(
        _nongaussian_case, "uniform-sphere", "quartic", _operator(6)),
}


def copies_counted_as_draws(f, state, n_samples: int, seed: int, ratios):
    """`mc_average` with each copy's values reduced as a draw of its own:
    the moments of COPIES * m values for m draws, so the stderr claims
    COPIES times the draws there are."""
    g, draw = state.whitened(f)
    steps = copy_steps(seed, g.dim)

    def fill(rng: np.random.Generator, m: int) -> Moments:
        z = draw(rng, m)
        values = [g.eval_batch(z, ratios)]
        for p, signs in steps:
            z = z[:, p] * signs
            values.append(g.eval_batch(z, ratios))
        return Moments.of(np.concatenate(values))

    return draw_chunked(seed, -(-n_samples // COPIES), fill, g.dim).partial.mean_stderr()


def _scaled_stderr(factor: float):
    """`mc_average` with its stderr multiplied by `factor`."""
    def estimate(f, state, n_samples: int, seed: int, ratios):
        return [(mean, factor * stderr)
                for mean, stderr in mc_average(f, state, n_samples, seed, ratios)]
    return estimate


@functools.cache
def _case(name: str):
    return CASES[name]()


@functools.cache
def _runs(estimator, name: str, seed: int) -> list[tuple[float, float]]:
    f, state, ratios, _ = _case(name)
    return estimator(f, state, SAMPLES, seed, ratios)


def calibration_failures(estimator, name: str) -> list[str]:
    """What is wrong with `estimator`'s error bars on case `name` over SEEDS,
    one line per ratio column: sd(z) outside `sd_band`, or a pooled bias
    mean(mean - exact) beyond SIGMAS of median(stderr) / sqrt(len(SEEDS)),
    which, unlike the per-seed z, does not correlate a run's error with its
    own stderr."""
    _, _, ratios, exact = _case(name)
    runs = np.array([_runs(estimator, name, seed) for seed in SEEDS])  # (seeds, ratios, 2)
    errors = runs[:, :, 0] - np.array(exact)
    stderr = runs[:, :, 1]
    lo, hi = sd_band(len(SEEDS))
    failures = []
    for i in range(len(ratios)):
        sd = math.sqrt(np.mean((errors[:, i] / stderr[:, i]) ** 2))
        bias = np.mean(errors[:, i]) / (np.median(stderr[:, i]) / math.sqrt(len(SEEDS)))
        if not lo <= sd <= hi:
            failures.append(f"ratio {ratios[i]}: sd(z) = {sd:.3f} outside [{lo:.3f}, {hi:.3f}]")
        if not abs(bias) <= SIGMAS:
            failures.append(f"ratio {ratios[i]}: pooled bias {bias:.2f} sigma")
    return failures


# estimators whose error bars are wrong, each of which the test must reject
DEFECTS = {
    "stderr-times-0.5": _scaled_stderr(0.5),
    "stderr-times-2": _scaled_stderr(2.0),
    "copies-counted-as-draws": copies_counted_as_draws,
}


def test_sd_band_holds_sd_1_and_rejects_a_stderr_off_by_half():
    lo, hi = sd_band(len(SEEDS))
    assert 0.5 < lo < 0.8 < 1.0 < 1.25 < hi < 2.0


def test_cases_span_both_estimators():
    states = {name: _case(name)[1] for name in CASES}
    ranks = {name: state.active_factor.shape[1] for name, state in states.items()
             if isinstance(state, GaussianState)}
    assert min(ranks.values()) < 2 * COPIES <= max(ranks.values())
    assert ranks["quadratic-identity-isotropic-dim8"] == 2 * COPIES
    # the non-Gaussian states, whose draws are each evaluated once
    assert {state.kind for name, state in states.items() if name not in ranks} == {
        "product-laplace", "uniform-sphere-radius"}


@pytest.mark.parametrize("name", list(CASES))
def test_mc_average_stderr_is_calibrated(name):
    assert not calibration_failures(mc_average, name)


def test_pure_state_amplified_average_stderr_is_calibrated():
    assert not calibration_failures(pure_state_amplified_average, "pure-state-amplified")


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_each_defect_fails_calibration(defect):
    # the isotropic identity case comes first: there every defect shows
    assert any(calibration_failures(DEFECTS[defect], name) for name in CASES)
