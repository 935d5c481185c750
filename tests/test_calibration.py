"""Calibration of the Monte-Carlo error bars: over a fixed block of seeds,
the standardized errors z = (mean - exact) / stderr of `mc_average` must
follow N(0, 1) (simulation-based calibration: Cook, Gelman & Rubin 2006;
Talts et al. 2018, arXiv:1804.06788).

Each case is a variable, a Gaussian state and its exact averages, at a rank
below 2 * COPIES (each draw evaluated once) and at or above it (each draw
evaluated as COPIES signed-permutation copies): the sweep rows (sin, cos,
quadratic) at two dispersion ratios, the `moments-check` statistic (the
one-term polynomial of a dense order-4 form) and the `higher-order` overlay
(a quadratic + quartic polynomial).  The quadratic of A = I on an isotropic
dim-8 state is invariant under every signed permutation, so there its
copies are equal: a stderr that counted each copy as a draw would be half
the true one.

The seeds, sample count and band below were fixed before any result was
seen.  A case that fails is a finding about the estimator: never re-seed,
shrink or drop one to make it pass.  Every defect of `DEFECTS` must make
the test fail.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from cqlab.experiments import build_functional, build_state
from cqlab.functionals import EvenPolynomial, Quadratic, SymmetricForm
from cqlab.gaussian import COPIES, Moments, copy_steps, draw_chunked, mc_average, substream

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


def _sweep_case(family: str, dim: int):
    f = build_functional({"family": family, "operator": _operator(3)}, dim)
    return f, build_state({"shape": "random", "seed": 5}, dim, 0.3), (1.0, 0.1)


def _moments_case(dim: int):
    # moments-check: the state has trace dim, the form standard normal entries
    form = SymmetricForm.from_dense(substream(7, 0).standard_normal((dim,) * 4))
    return EvenPolynomial({4: form}), build_state({"shape": "random", "seed": 5}, dim, dim), (1.0,)


def _overlay_case(dim: int):
    f = build_functional({"family": "even-polynomial", "quadratic": _operator(4),
                          "quartic": {"operator": _operator(6), "coeff": 0.5}}, dim)
    return f, build_state({"shape": "random", "seed": 5}, dim, 0.1), (1.0,)


# name: () -> (variable, Gaussian state, dispersion ratios)
CASES = {
    "quadratic-identity-isotropic-dim8": lambda: (
        Quadratic(np.eye(8)), build_state({"shape": "isotropic"}, 8, 0.3), (1.0,)),
    **{f"{family}-rank{dim}": functools.partial(_sweep_case, family, dim)
       for family in ("sin-quad", "cos-quad-minus-one", "quadratic") for dim in (4, 16)},
    "moments-check-rank4": functools.partial(_moments_case, 4),
    "moments-check-rank8": functools.partial(_moments_case, 8),
    "higher-order-overlay-rank4": functools.partial(_overlay_case, 4),
    "higher-order-overlay-rank12": functools.partial(_overlay_case, 12),
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
    f, state, ratios = CASES[name]()
    return f, state, ratios, f.closed_form(state, ratios)


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
    ranks = {name: case()[1].active_factor.shape[1] for name, case in CASES.items()}
    assert min(ranks.values()) < 2 * COPIES <= max(ranks.values())
    assert ranks["quadratic-identity-isotropic-dim8"] == 2 * COPIES


@pytest.mark.parametrize("name", list(CASES))
def test_mc_average_stderr_is_calibrated(name):
    assert not calibration_failures(mc_average, name)


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_each_defect_fails_calibration(defect):
    # the isotropic identity case comes first: there every defect shows
    assert any(calibration_failures(DEFECTS[defect], name) for name in CASES)
