"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cqlab.cli import main
from cqlab.correspondence import (
    generalized_average,
    t2n_variable,
    t_state,
    t_state_extended,
    t_variable,
)
from cqlab.errors import ClassMembershipError
from cqlab.experiments import (
    ExperimentConfig,
    SecondMomentState,
    alpha_sweep,
    analytic_average,
    chebyshev_experiment,
    closed_form_average,
    mc_average,
    nongaussian_experiment,
    pure_state_experiment,
    sub_alpha_states,
)
from cqlab.functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Quadratic,
    SinQuad,
    SymmetricForm,
)
from cqlab.gaussian import GaussianState, pure_state_measure
from cqlab.hilbert import symmetric_from_entries, trace_product
from cqlab.wick import moment_form, moment_mc_check


def _check(report: dict, name: str):
    return next(c for c in report["checks"] if c.name == name)


def _report(number: int, name: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {status} - {name}: {detail} ({elapsed:.1f} s)")


def test_criterion_01_trace_formula_identity():
    t0 = time.perf_counter()
    n, trials, n_samples = 16, 20, 100_000
    rng = np.random.default_rng(1001)
    hits = 0
    for trial in range(trials):
        m = rng.normal(size=(n, n))
        b = symmetric_from_entries(m @ m.T / n)
        a = symmetric_from_entries(rng.normal(size=(n, n)))
        rho = GaussianState(b)
        [(mean, stderr)] = mc_average(Quadratic(a), rho, n_samples, seed=2000 + trial)
        if abs(mean - trace_product(b, a)) <= 4.0 * stderr:
            hits += 1
    elapsed = time.perf_counter() - t0
    passed = hits >= 19 and elapsed <= 30.0
    _report(1, "trace-formula identity", passed,
            f"{hits}/{trials} trials within 4 sigma at n={n}, N={n_samples}", elapsed)
    assert hits >= 19
    assert elapsed <= 30.0


def test_criterion_02_wick_engine():
    t0 = time.perf_counter()
    n, n_samples = 4, 200_000
    rng = np.random.default_rng(1002)
    m = rng.normal(size=(n, n))
    d = symmetric_from_entries(m @ m.T / n)
    rho = GaussianState(d)
    oks = []
    for order in (4, 6):
        form = SymmetricForm.from_dense(rng.normal(size=(n,) * order))
        analytic, mc, stderr = moment_mc_check(rho, form, n_samples, seed=3001)
        oks.append(abs(analytic - mc) <= 4.0 * stderr)
    e = np.eye(n)
    rep = moment_form(np.eye(n), 4)(e[0], e[0], e[0], e[0])
    split = moment_form(np.eye(n), 4)(e[0], e[0], e[1], e[1])
    spots = rep == 3.0 and split == 1.0
    elapsed = time.perf_counter() - t0
    passed = all(oks) and spots and elapsed <= 60.0
    _report(2, "pairing-formula moment engine", passed,
            f"orders 4/6 within 4 sigma: {oks}, identity spot values ({rep}, {split})",
            elapsed)
    assert all(oks)
    assert spots
    assert elapsed <= 60.0


def test_criterion_03_asymptotic_equality_remainder_order():
    t0 = time.perf_counter()
    a = 1.0
    cfg = ExperimentConfig(
        dim=1, alpha_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
        functional_spec={"family": "cos-quad-minus-one", "operator": {"matrix": [[a]]}},
        state_spec={"shape": "isotropic"}, mc_samples=1000, seed=1003)
    slope = alpha_sweep(cfg)["fitted_slope"]
    slope_ok = slope is not None and abs(slope - 2.0) <= 0.1
    oracle_ok = True
    for alpha in cfg.alpha_grid:
        rho = GaussianState(np.array([[alpha]]))
        oracle = complex(1.0, -2.0 * a * alpha) ** -0.5
        closed = oracle.real - 1.0
        truncated = analytic_average(CosQuadMinusOne([[a]]), rho, 4)
        oracle_ok = oracle_ok and abs(closed - truncated) <= a ** 3 * alpha ** 3
    elapsed = time.perf_counter() - t0
    passed = slope_ok and oracle_ok and elapsed <= 5.0
    _report(3, "asymptotic remainder order", passed,
            f"log-log slope {slope:.4f} in 2.0 +- 0.1, "
            f"oracle vs truncated within O(alpha^3)", elapsed)
    assert slope_ok
    assert oracle_ok
    assert elapsed <= 5.0


def test_criterion_04_generalized_model_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.02, 0.2))
        q2 = symmetric_from_entries(rng.normal(size=(n, n)))
        q4 = SymmetricForm.from_quadratic_power(
            symmetric_from_entries(rng.normal(size=(n, n))), 2, float(rng.uniform(0.2, 2.0)))
        f = EvenPolynomial({2: SymmetricForm.from_matrix(q2), 4: q4})
        m = rng.normal(size=(n, n))
        b = m @ m.T
        rho = GaussianState(b * (alpha / np.trace(b)))
        d = t_state(rho, alpha)
        classical = analytic_average(f, rho, 4)
        routed = alpha * generalized_average(d, t2n_variable(f, 2, alpha))
        rel = abs(classical - routed) / max(abs(classical), abs(routed))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed <= 10.0
    _report(4, "generalized-model exactness on quartic polynomials", passed,
            f"worst relative gap {worst:.2e} <= 1e-10 over 10 random cases", elapsed)
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_05_pure_state_structure():
    t0 = time.perf_counter()
    alpha, n_samples = 0.05, 100_000
    reports = []
    reports.append(pure_state_experiment(
        np.array([1.0, 0.0, 0.0]), alpha, np.diag([2.0, 5.0, 1.0]), n_samples, seed=1005))
    psi = np.array([2.0, -1.0, 2.0]) / 3.0
    a = symmetric_from_entries([[0.5, 1.0, 0.0], [1.0, -0.3, 0.2], [0.0, 0.2, 0.8]])
    reports.append(pure_state_experiment(psi, alpha, a, n_samples, seed=1006))
    span_ok = all(_check(r, "span").passed for r in reports)
    amp_ok = all(_check(r, "amplified_average").passed for r in reports)
    cov_ok = all(_check(r, "covariance_shape").passed for r in reports)
    axis_ok = _check(reports[0], "off_axis_zero").passed
    elapsed = time.perf_counter() - t0
    passed = span_ok and amp_ok and cov_ok and axis_ok
    _report(5, "pure-state structure", passed,
            f"exact span membership, amplified averages and covariance bands "
            f"on axis-aligned and generic directions at N={n_samples}", elapsed)
    assert span_ok and axis_ok
    assert amp_ok
    assert cov_ok


def test_criterion_06_degeneration_of_variable_map():
    t0 = time.perf_counter()
    ok_exact = True
    ok_gap = True
    gaps = []
    for a in (0.5, 1.0, 2.0):
        am = np.array([[a]])
        ok_exact = ok_exact and np.array_equal(t_variable(SinQuad(am)), t_variable(Quadratic(am)))
        for alpha in (0.1, 0.05, 0.01):
            rho = GaussianState(np.array([[alpha]]))
            gap = abs(closed_form_average(Quadratic(am), rho)[0]
                      - closed_form_average(SinQuad(am), rho)[0])
            gaps.append(gap)
            ok_gap = ok_gap and 0.0 < gap <= 3.0 * a ** 3 * alpha ** 3
    elapsed = time.perf_counter() - t0
    passed = ok_exact and ok_gap
    _report(6, "degeneration of the variable map", passed,
            f"identical quantum images, classical gaps nonzero and <= 3 a^3 alpha^3 "
            f"(max {max(gaps):.2e})", elapsed)
    assert ok_exact
    assert ok_gap


def test_criterion_07_density_operator_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    alpha = 0.08
    count = 0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        kind = trial % 3
        if kind == 0:
            m = rng.normal(size=(n, n))
            b = m @ m.T
        elif kind == 1:
            psi = rng.normal(size=n)
            b = np.outer(psi, psi)
        else:
            r = int(rng.integers(1, n))
            m = rng.normal(size=(n, r))
            b = m @ m.T
        rho = GaussianState(b * (alpha / np.trace(b)))
        for d in (t_state(rho, alpha), t_state_extended(rho)):
            tr = float(np.trace(d.matrix))
            lo = float(np.linalg.eigvalsh(d.matrix).min())
            assert abs(tr - 1.0) <= 1e-9
            assert lo >= -1e-12
            count += 1
    elapsed = time.perf_counter() - t0
    _report(7, "density-operator validity", True,
            f"{count} mapped states all unit-trace within 1e-9 and PSD to -1e-12", elapsed)


def test_criterion_08_incompleteness_states():
    t0 = time.perf_counter()
    alpha = 0.01
    rng = np.random.default_rng(1008)
    h = symmetric_from_entries(rng.normal(size=(4, 4)))
    report = sub_alpha_states(alpha, shrink=alpha, dim=4, hamiltonian=h,
                              n_samples=50_000, seed=1008)
    rejected = _check(report, "exact_map_accepts").statistic == 0.0
    energy_ok = _check(report, "energy").passed
    rho = GaussianState(np.eye(2) * (alpha * alpha / 2.0))
    with pytest.raises(ClassMembershipError):
        t_state(rho, alpha)
    elapsed = time.perf_counter() - t0
    passed = rejected and energy_ok
    _report(8, "sub-dispersion states have no exact image", passed,
            f"dispersion alpha^2 rejected, |<H>| <= ||H|| sigma^2 within 4 sigma",
            elapsed)
    assert rejected
    assert energy_ok


def test_criterion_09_nongaussian_second_moment_law():
    t0 = time.perf_counter()
    n, n_samples = 4, 100_000
    rng = np.random.default_rng(1009)
    a = symmetric_from_entries(rng.normal(size=(n, n)))
    laplace = nongaussian_experiment(
        SecondMomentState.product_laplace(np.full(n, 0.025)), a, n_samples, seed=1009)
    sphere = nongaussian_experiment(
        SecondMomentState.uniform_sphere(0.3, n), a, n_samples, seed=1010)
    quad_ok = _check(laplace, "quadratic").passed and _check(sphere, "quadratic").passed
    quartic = _check(laplace, "quartic")
    sep_ok = quartic.passed
    elapsed = time.perf_counter() - t0
    passed = quad_ok and sep_ok
    _report(9, "non-Gaussian second-moment law", passed,
            f"trace formula within 4 sigma for both samplers; Laplace quartic "
            f"separation {abs(quartic.statistic - quartic.reference) / quartic.stderr:.1f} sigma",
            elapsed)
    assert quad_ok
    assert sep_ok


def test_criterion_10_chebyshev_tail_bound():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dim=4, alpha_grid=(0.1, 0.01, 0.001),
        functional_spec={"family": "quadratic"},
        state_spec={"shape": "isotropic"}, mc_samples=100_000, seed=1011)
    report = chebyshev_experiment(cfg)
    elapsed = time.perf_counter() - t0
    _report(10, "energy tail bound", report["passed"],
            f"empirical tails below dispersion/C + 4 sigma for C in "
            f"{{alpha, 10 alpha, 100 alpha}} at three alphas", elapsed)
    assert report["passed"]


def test_criterion_11_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "trace": {
            "dim": 16,
            "functional": {"family": "quadratic", "operator": {"random": {"seed": 3}}},
            "alpha_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
            "state": {"shape": "random", "seed": 5},
            "mc_samples": 20_000,
            "seed": 1012,
        },
        "moments": {
            "dim": 4,
            "functional": {"family": "quadratic"},
            "alpha_grid": [0.1],
            "mc_samples": 200_000,
            "seed": 1013,
            "order": 2,
        },
        "cos": {
            "dim": 1,
            "functional": {"family": "cos-quad-minus-one", "operator": {"matrix": [[1.0]]}},
            "alpha_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
            "mc_samples": 10_000,
            "seed": 1014,
        },
        # large enough per chunk that OpenBLAS threads each GEMM at --threads 1
        "cos64": {
            "dim": 64,
            "functional": {"family": "cos-quad-minus-one", "operator": {"random": {"seed": 7}}},
            "alpha_grid": [0.1, 0.03, 0.01, 0.003, 0.001],
            "state": {"shape": "random", "seed": 9},
            "mc_samples": 16_384,
            "seed": 1015,
        },
    }
    subcommand = {"trace": "sweep", "moments": "moments-check", "cos": "sweep", "cos64": "sweep"}
    identical = True
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"{name}-t{threads}"
            rc = main([subcommand[name], "--config", str(cfg_path), "--out", str(out),
                       "--threads", str(threads)])
            assert rc == 0
            outs[threads] = out
        for f in sorted(outs[1].iterdir()):
            if f.suffix in (".csv", ".dat"):
                identical = identical and all(
                    f.read_bytes() == (outs[t] / f.name).read_bytes() for t in (2, 8))
    elapsed = time.perf_counter() - t0
    _report(11, "thread-count determinism", identical,
            "1, 2 and 8 workers produce byte-identical CSV and plot files on "
            "four experiment configs", elapsed)
    assert identical
