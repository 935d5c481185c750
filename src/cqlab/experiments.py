"""Experiment orchestration: Monte-Carlo vs analytic averages, dispersion
sweeps with remainder-order fitting, pure-state demonstrations, sub-dispersion
states, non-Gaussian second-moment states, and the small-dimension end-to-end
demo.

Remainder fitting prefers closed-form classical averages (exact for
polynomials; determinant formula for the sin/cos families) because MC noise
at small dispersion swamps the quadratic-order remainders at feasible sample
counts.  MC estimates stay in every report as sanity overlays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .correspondence import (
    generalized_average,
    quantum_average,
    t2n_variable,
    t_state,
    t_state_extended,
    t_variable,
)
from .errors import ClassMembershipError, ConfigError
from .functionals import (
    MAX_DENSE_ORDER,
    MAX_FORM_ORDER,
    CosQuadMinusOne,
    EvenPolynomial,
    Functional,
    QuadFormFunctional,
    Quadratic,
    ScaledFunctional,
    SinQuad,
    SymmetricForm,
    amplify,
)
from .gaussian import (
    DEFAULT_CHUNK_SIZE,
    GaussianState,
    SampleBatch,
    chebyshev_tail,
    draw_chunked,
    exact_span_coefficients,
    mean_stderr,
    pure_state_measure,
    substream,
)
from .hilbert import as_vector, operator_norm, symmetric_from_entries, trace_product
from .wick import gaussian_integral_multilinear, moment_form_eval, moment_mc_check

# Large odd stride so per-row substream seeds never collide for small indices.
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, index: int) -> int:
    return (seed + index * _SEED_STRIDE) & _MASK64


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    alpha_grid: tuple[float, ...]
    functional_spec: dict
    state_spec: dict
    mc_samples: int
    seed: int
    order: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        grid = tuple(float(a) for a in self.alpha_grid)
        if not grid or not all(math.isfinite(a) and a > 0.0 for a in grid):
            raise ConfigError("alpha_grid must contain finite positive values")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("alpha_grid must be strictly decreasing")
        object.__setattr__(self, "alpha_grid", grid)
        if self.mc_samples < 1000:
            raise ConfigError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")


# The config format.  A schema is int, float (a JSON number that is not a
# boolean and fits a double) or str; None or a literal string, matched
# exactly; [s], a list of s; {key: s}, an object with no other keys; or a
# tuple of alternatives, one per JSON kind.  Null means "absent" where allowed.
_OPERATOR_SCHEMA = (None, "identity", {"diagonal": [float], "matrix": [[float]],
                                       "random": {"seed": int, "scale": float}})
CONFIG_SCHEMA = {
    "dim": int,
    "alpha_grid": [float],
    "functional": {
        "family": str,
        "operator": _OPERATOR_SCHEMA,
        "quadratic": _OPERATOR_SCHEMA,
        "quartic": (None, {"operator": _OPERATOR_SCHEMA, "coeff": float}),
    },
    "state": {"shape": str, "weights": [float], "psi": [float], "seed": int, "sampler": str},
    "mc_samples": int,
    "seed": int,
    "order": int,
    "slope_band": (None, [float]),
}
_LEAVES = {  # a JSON true is an int to Python; a 400-digit integer is no double
    int: (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer", "integers"),
    float: (lambda x: isinstance(x, float) or _LEAVES[int][0](x) and abs(x) <= sys.float_info.max,
            "a number", "numbers"),
    str: (lambda x: isinstance(x, str), "a string", "strings"),
}


def check_config(value, schema=CONFIG_SCHEMA, where: str = "config") -> None:
    """Raise a one-line ConfigError naming the key path where `value` departs from `schema`."""
    if isinstance(schema, tuple):  # take the alternative of the value's kind
        schema = next((s for s in schema if type(s) is type(value)), schema)
    if isinstance(schema, dict) and isinstance(value, dict):
        for key, item in value.items():
            if key not in schema:
                raise ConfigError(f"unknown {where} key {key!r}")
            check_config(item, schema[key], key if where == "config" else f"{where}.{key}")
    elif not _fits(value, schema):
        raise ConfigError(f"{where!r} must be {_describe(schema)}, got {value!r:.80}")


def _fits(value, schema) -> bool:
    if isinstance(schema, list):
        return isinstance(value, list) and all(_fits(v, schema[0]) for v in value)
    if isinstance(schema, type):
        return _LEAVES[schema][0](value)
    return value == schema  # None or a literal string; no JSON value equals a dict or tuple


def _describe(schema, plural: bool = False) -> str:
    if isinstance(schema, tuple):
        return " or ".join(map(_describe, schema))
    if isinstance(schema, list):
        return f"{'lists' if plural else 'a list'} of {_describe(schema[0], True)}"
    if isinstance(schema, type):
        return _LEAVES[schema][1 + plural]
    return "an object" if isinstance(schema, dict) else repr(schema)


def build_operator(spec, dim: int) -> np.ndarray:
    """Operator from a config fragment: identity, diagonal, matrix or random."""
    if spec == "identity" or spec is None:
        return np.eye(dim)
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"bad operator spec: {spec!r}")
    kind, payload = next(iter(spec.items()))
    if kind == "diagonal":
        d = np.asarray(payload, dtype=np.float64)
        if d.shape != (dim,):
            raise ConfigError(f"diagonal of length {d.shape} does not match dim {dim}")
        return np.diag(d)
    if kind == "matrix":
        m = np.asarray(payload, dtype=np.float64)
        if m.shape != (dim, dim):
            raise ConfigError(f"matrix of shape {m.shape} does not match dim {dim}")
        return symmetric_from_entries(m)
    if kind == "random":
        seed = int(payload.get("seed", 0))
        scale = float(payload.get("scale", 1.0))
        extra = set(payload) - {"seed", "scale"}
        if extra:
            raise ConfigError(f"unknown random-operator keys: {sorted(extra)}")
        rng = substream(seed, 0)
        return symmetric_from_entries(scale * rng.standard_normal((dim, dim)))
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_functional(spec: dict, dim: int) -> Functional:
    family = spec.get("family")
    if family == "quadratic":
        return Quadratic(build_operator(spec.get("operator"), dim))
    if family == "sin-quad":
        return SinQuad(build_operator(spec.get("operator"), dim))
    if family == "cos-quad-minus-one":
        return CosQuadMinusOne(build_operator(spec.get("operator"), dim))
    if family == "even-polynomial":
        terms: dict[int, SymmetricForm] = {}
        if spec.get("quadratic") is not None:
            terms[2] = SymmetricForm.from_matrix(build_operator(spec["quadratic"], dim))
        if spec.get("quartic") is not None:
            q = spec["quartic"]
            terms[4] = SymmetricForm.from_quadratic_power(
                build_operator(q.get("operator"), dim), 2, float(q.get("coeff", 1.0)))
        if not terms:
            raise ConfigError("even-polynomial needs a quadratic or quartic term")
        return EvenPolynomial(terms)
    raise ConfigError(f"unknown functional family {family!r}")


def build_state(spec: dict, dim: int, alpha: float) -> GaussianState:
    """Gaussian state of dispersion alpha with the configured covariance shape."""
    shape = spec.get("shape", "isotropic")
    if shape == "isotropic":
        return GaussianState(np.eye(dim) * (alpha / dim))
    if shape == "diagonal":
        w = np.asarray(spec.get("weights"), dtype=np.float64)
        if (w.shape != (dim,) or not np.all(np.isfinite(w)) or np.any(w < 0.0)
                or w.sum() <= 0.0):
            raise ConfigError("diagonal state needs finite nonnegative weights of length dim")
        return GaussianState(np.diag(alpha * w / w.sum()))
    if shape == "rank1":
        psi = as_vector(spec.get("psi"), dim)
        nrm2 = float(psi @ psi)
        if nrm2 <= 0.0:
            raise ConfigError("rank1 state needs a nonzero psi")
        return pure_state_measure(psi / math.sqrt(nrm2), alpha)
    if shape == "random":
        seed = int(spec.get("seed", 0))
        rng = substream(seed, 1)
        m = rng.standard_normal((dim, dim))
        b = m @ m.T
        return GaussianState(b * (alpha / np.trace(b)))
    raise ConfigError(f"unknown state shape {shape!r}")


# ---------------------------------------------------------------------------
# non-Gaussian second-moment states


class SecondMomentState:
    """Zero-mean non-Gaussian state with a known covariance operator."""

    def __init__(self, kind: str, covariance: np.ndarray, fill):
        self.kind = kind
        self.covariance = covariance
        self.dim = covariance.shape[0]
        self.fill = fill  # fill(rng, m): m rows drawn using only rng

    def dispersion(self) -> float:
        return float(np.trace(self.covariance))

    def sample(self, seed: int, count: int, chunk_size: int = DEFAULT_CHUNK_SIZE,
               workers: int = 1) -> SampleBatch:
        return draw_chunked(seed, count, self.fill, chunk_size=chunk_size, workers=workers)

    @classmethod
    def product_laplace(cls, variances) -> "SecondMomentState":
        v = np.asarray(variances, dtype=np.float64)
        if np.any(v < 0.0):
            raise ValueError("variances must be nonnegative")
        scales = np.sqrt(v / 2.0)  # Laplace(0, b) has variance 2 b^2

        def fill(rng: np.random.Generator, m: int) -> np.ndarray:
            return rng.laplace(0.0, 1.0, size=(m, v.size)) * scales

        return cls("product-laplace", np.diag(v), fill)

    @classmethod
    def uniform_sphere(cls, radius: float, dim: int) -> "SecondMomentState":
        if not radius > 0.0:
            raise ValueError("radius must be positive")

        def fill(rng: np.random.Generator, m: int) -> np.ndarray:
            z = rng.standard_normal((m, dim))
            norms = np.linalg.norm(z, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            return radius * z / norms

        return cls("uniform-sphere-radius", (radius ** 2 / dim) * np.eye(dim), fill)


def build_second_moment_state(spec: dict, dim: int, alpha: float) -> SecondMomentState:
    kind = spec.get("sampler", "product-laplace")
    if kind == "product-laplace":
        return SecondMomentState.product_laplace(np.full(dim, alpha / dim))
    if kind == "uniform-sphere":
        return SecondMomentState.uniform_sphere(math.sqrt(alpha), dim)
    raise ConfigError(f"unknown non-Gaussian sampler {kind!r}")


# ---------------------------------------------------------------------------
# averages


def mc_average(f: Functional, state, n_samples: int, seed: int,
               workers: int = 1) -> tuple[float, float]:
    """Sample mean and standard error of f over a deterministic stream of
    draws.

    Each chunk of draws is evaluated as soon as it is drawn and only its
    values are kept, so memory is O(n_samples + workers * chunk * dim), not
    O(n_samples * dim).
    The values equal those of `f.eval_batch(state.sample(...).samples)`
    row for row, and the mean is a pairwise reduction over them, so it does
    not depend on how many workers filled them.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    values = draw_chunked(seed, n_samples, lambda rng, m: f.eval_batch(state.fill(rng, m)),
                          workers=workers)
    return mean_stderr(values.samples)


def analytic_average(f: Functional, rho: GaussianState, max_order: int) -> float:
    """Taylor/Wick average: sum over even orders 2k <= max_order of
    (1/(2k)!) Tr e(2k, B) f^(2k)(0).  Exact when f is a polynomial of
    degree <= max_order."""
    total = 0.0
    for two_k in range(2, max_order + 1, 2):
        form = f.taylor_form(two_k)
        if form.is_zero:
            continue
        total += gaussian_integral_multilinear(form, rho.covariance) / math.factorial(two_k)
    return total


def closed_form_average(f: Functional, rho: GaussianState) -> float | None:
    """Exact classical average when one is known for the family, else None.

    A g((A psi, psi)) family supplies its own closed form; even polynomials
    integrate term by term.
    """
    if isinstance(f, ScaledFunctional):
        inner = closed_form_average(f.base, rho)
        return None if inner is None else f.factor * inner
    if isinstance(f, QuadFormFunctional):
        return f.closed_form(rho, f.operator)
    if isinstance(f, EvenPolynomial):
        return float(sum(
            gaussian_integral_multilinear(q, rho.covariance) for q in f.terms.values()))
    return None


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Check:
    """One gate of a report: a statistic against its reference.

    `stderr` (Monte-Carlo standard error) and `sigmas` (the k of a k-sigma
    band) are None where a gate has none.  `band` is its tolerance: the
    allowed |statistic - reference| (a range is stored as centre and
    half-width), relative error, or excess over a bound, or the distance a
    separation must exceed.
    """

    name: str
    statistic: float
    reference: float | None
    stderr: float | None
    band: float | None
    sigmas: float | None
    passed: bool


def _gate(name, statistic, reference, stderr, band, sigmas, passed, *inputs) -> Check:
    """The one place a gate's outcome is fixed: it fails when any number it
    records or was computed from is not finite, whatever its comparison gave."""
    numbers = [None if x is None else float(x)
               for x in (statistic, reference, stderr, band, sigmas)]
    finite = all(math.isfinite(x) for x in numbers + list(inputs) if x is not None)
    return Check(name, *numbers, bool(passed) and finite)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def within_sigmas(name: str, statistic, reference, stderr, sigmas: float, floor: float) -> Check:
    """|statistic - reference| <= sigmas * stderr + floor."""
    band = sigmas * stderr + floor
    return _gate(name, statistic, reference, stderr, band, sigmas,
                 abs(statistic - reference) <= band, floor)


def relatively_exact(name: str, statistic, reference, rtol: float) -> Check:
    """relative_error(statistic, reference) <= rtol; rtol 0 asks for equality."""
    return _gate(name, statistic, reference, None, rtol, None,
                 relative_error(statistic, reference) <= rtol)


def bound_plus_noise(name: str, statistic, bound, stderr, sigmas: float,
                     bound_inputs: tuple) -> Check:
    """statistic <= bound + sigmas * stderr; `bound_inputs` are the numbers
    the bound was computed from (a bound at an infinite threshold is 0)."""
    band = sigmas * stderr
    return _gate(name, statistic, bound, stderr, band, sigmas, statistic <= bound + band,
                 *bound_inputs)


def in_range(name: str, statistic, lo: float, hi: float) -> Check:
    """lo <= statistic <= hi."""
    return _gate(name, statistic, lo / 2 + hi / 2, None, hi / 2 - lo / 2, None,
                 lo <= statistic <= hi, lo, hi)


def separated(name: str, statistic, reference, stderr, sigmas: float) -> Check:
    """|statistic - reference| / stderr > sigmas (a zero stderr separates)."""
    separation = abs(statistic - reference) / stderr if stderr > 0.0 else math.inf
    return _gate(name, statistic, reference, stderr, sigmas * stderr, sigmas,
                 separation > sigmas)


def measured(name: str, statistic, reference, stderr) -> Check:
    """A comparison recorded without a band: it fails only on a non-finite number."""
    return _gate(name, statistic, reference, stderr, None, None, True)


def _report(checks: list[Check], **values) -> dict:
    """A report: its values, its checks, and whether all of them passed."""
    return {**values, "checks": checks, "passed": all(c.passed for c in checks)}


# ---------------------------------------------------------------------------
# dispersion sweep


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    classical_mc: float
    classical_analytic: float | None
    quantum_term: float
    remainder: float
    stderr: float
    below_noise: bool

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    fitted_slope: float | None
    fitted_intercept: float | None
    noise_limited: bool
    excluded: int

    def report(self, band: list | None) -> dict:
        """The sweep's values and checks: per row the classical average
        against the quantum term, failing on a non-finite value (a row's
        stderr is not finite whenever its MC mean is not), and the fitted
        slope against `band` = [lo, hi] when one is given."""
        checks = [measured(f"remainder[{i}]", r.classical_mc if r.classical_analytic is None
                           else r.classical_analytic, r.quantum_term, r.stderr)
                  for i, r in enumerate(self.rows)]
        if band is not None:
            slope = math.nan if self.fitted_slope is None else self.fitted_slope
            checks.append(in_range("fitted_slope", slope, *band))
        return _report(checks, fitted_slope=self.fitted_slope,
                       fitted_intercept=self.fitted_intercept, noise_limited=self.noise_limited,
                       excluded_rows=self.excluded, slope_band=band, rows=self.rows)


def alpha_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Classical vs quantum-term averages along the dispersion grid, with a
    log-log fit of the remainder order.

    Rows whose remainder is not resolved (below 4 MC standard errors when
    only MC is available, or at the floating-point floor for exact values)
    are flagged and excluded from the fit.
    """
    if len(cfg.alpha_grid) < 3:
        raise ConfigError("a sweep needs at least 3 grid points")
    if cfg.alpha_grid[0] / cfg.alpha_grid[-1] < 100.0:
        raise ConfigError("a sweep grid must span at least two decades")
    f = build_functional(cfg.functional_spec, cfg.dim)
    a_quant = t_variable(f)
    rows = []
    for i, alpha in enumerate(cfg.alpha_grid):
        rho = build_state(cfg.state_spec, cfg.dim, alpha)
        d = t_state(rho, alpha)
        quantum_term = alpha * quantum_average(d, a_quant)
        analytic = closed_form_average(f, rho)
        mc, stderr = mc_average(f, rho, cfg.mc_samples, derive_seed(cfg.seed, i), workers=workers)
        classical = analytic if analytic is not None else mc
        remainder = classical - quantum_term
        scale = max(abs(classical), abs(quantum_term), 1.0)
        if analytic is None:
            floor = 4.0 * stderr
        else:
            floor = 1e-12 * scale
        rows.append(SweepRow(
            alpha=alpha, classical_mc=mc, classical_analytic=analytic,
            quantum_term=quantum_term, remainder=remainder, stderr=stderr,
            below_noise=abs(remainder) <= floor))
    fit_rows = [r for r in rows if not r.below_noise]
    if len(fit_rows) < 2:
        return SweepResult(tuple(rows), None, None, True, len(rows) - len(fit_rows))
    logs_a = np.log(np.array([r.alpha for r in fit_rows]))
    logs_r = np.log(np.array([abs(r.remainder) for r in fit_rows]))
    slope, intercept = np.polyfit(logs_a, logs_r, 1)
    return SweepResult(tuple(rows), float(slope), float(intercept), False,
                       len(rows) - len(fit_rows))


# ---------------------------------------------------------------------------
# pure states


def pure_state_experiment(psi, alpha: float, a, n_samples: int, seed: int,
                          workers: int = 1) -> dict:
    """Rank-1 mixture demo: amplified average, exact span membership, and the
    sample-covariance shape against psi (x) psi."""
    v = as_vector(psi)
    am = symmetric_from_entries(a)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"the quantum comparison needs a unit vector, got norm {nrm!r}")
    rho = pure_state_measure(v, alpha)
    batch = rho.sample(seed, n_samples, workers=workers)
    x = batch.samples

    f = Quadratic(am)
    amp_mean, amp_stderr = mean_stderr(f.eval_batch(x) / alpha)
    expected = float(v @ am @ v)

    direction = rho.sampling_matrix()[:, 0]
    ok, _coeffs = exact_span_coefficients(x, direction)
    zero_cols = np.nonzero(direction == 0.0)[0]
    off_axis = x[:, zero_cols] == 0.0

    b = rho.covariance
    cov_err = np.abs((x.T @ x) / n_samples / alpha - np.outer(v, v))
    band = 4.0 * np.sqrt((np.outer(np.diag(b), np.diag(b)) + b ** 2) / n_samples) / alpha

    # span, off_axis_zero and covariance_shape are fractions of rows or
    # entries that hold, so each must be exactly 1
    return _report([
        within_sigmas("amplified_average", amp_mean, expected, amp_stderr, 4.0, 0.0),
        relatively_exact("span", np.mean(ok), 1.0, 0.0),
        relatively_exact("off_axis_zero", np.mean(off_axis) if off_axis.size else 1.0, 1.0, 0.0),
        relatively_exact("covariance_shape", np.mean(cov_err <= band + 1e-15), 1.0, 0.0),
    ], alpha=alpha, samples=n_samples, covariance_max_error=float(cov_err.max()))


# ---------------------------------------------------------------------------
# sub-dispersion states


def sub_alpha_states(alpha: float, shrink: float, dim: int, hamiltonian,
                     n_samples: int, seed: int, workers: int = 1) -> dict:
    """States with dispersion shrink*alpha: the exact-dispersion map must
    reject them (they have no quantum image), the extended map still
    normalizes them, and the mean energy obeys |<H>| <= ||H|| sigma^2."""
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    h = symmetric_from_entries(hamiltonian)
    sigma2 = shrink * alpha
    rho = GaussianState(np.eye(dim) * (sigma2 / dim))

    try:
        t_state(rho, alpha)
        error = None
    except ClassMembershipError as exc:
        error = str(exc)

    extended = t_state_extended(rho)
    mean, stderr = mc_average(Quadratic(h), rho, n_samples, seed, workers=workers)
    norm = operator_norm(h)
    boundary = abs(sigma2 - alpha) <= 1e-9 * alpha
    return _report([
        # 1 if the exact map accepted the state, against 1 if it should have
        relatively_exact("exact_map_accepts", error is None, boundary, 0.0),
        within_sigmas("extended_trace", np.trace(extended.matrix), 1.0, 0.0, 0.0, 1e-12),
        bound_plus_noise("energy", abs(mean), norm * sigma2, stderr, 4.0, (norm, sigma2)),
    ], alpha=alpha, shrink=shrink, dispersion=sigma2, exact_map_error=error)


# ---------------------------------------------------------------------------
# non-Gaussian states


def nongaussian_experiment(state: SecondMomentState, a, n_samples: int, seed: int,
                           workers: int = 1) -> dict:
    """Quadratic averages see only the covariance; a quartic form exposes the
    non-Gaussian fourth moments against the Gaussian pairing prediction."""
    am = symmetric_from_entries(a)
    quad = Quadratic(am)
    mean, stderr = mc_average(quad, state, n_samples, seed, workers=workers)
    expected = trace_product(state.covariance, am)

    quartic = SymmetricForm.from_quadratic_power(np.eye(state.dim), 2, 1.0)
    q_mean, q_stderr = mc_average(EvenPolynomial({4: quartic}), state, n_samples,
                                  derive_seed(seed, 1), workers=workers)
    gaussian_pred = gaussian_integral_multilinear(quartic, state.covariance)
    return _report([
        # the FP floor matters when the statistic is constant (uniform sphere
        # with A = I), where both the error and stderr sit at round-off scale
        within_sigmas("quadratic", mean, expected, stderr, 4.0, 1e-12 * max(1.0, abs(expected))),
        separated("quartic", q_mean, gaussian_pred, q_stderr, 4.0),
    ], kind=state.kind, samples=n_samples)


# ---------------------------------------------------------------------------
# small-dimension end-to-end demo


def finite_qm_demo(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Full pipeline on R^n for small n with all analytic cross-checks."""
    if cfg.dim > 4:
        raise ConfigError("the end-to-end demo runs at dim <= 4")
    alpha = cfg.alpha_grid[0]
    n = cfg.dim
    rng = substream(cfg.seed, 2)

    # pure state branch
    psi = np.ones(n) / math.sqrt(n)
    a_op = build_operator(cfg.functional_spec.get("operator"), n) \
        if cfg.functional_spec.get("family") == "quadratic" else np.eye(n)
    pure = pure_state_experiment(psi, alpha, a_op, cfg.mc_samples, derive_seed(cfg.seed, 10),
                                 workers=workers)["checks"]

    # random mixed state, quadratic variable: amplified MC vs Tr D A
    m = rng.standard_normal((n, n))
    b = m @ m.T
    rho = GaussianState(b * (alpha / np.trace(b)))
    d = t_state(rho, alpha)
    a_rand = symmetric_from_entries(rng.standard_normal((n, n)))
    f = Quadratic(a_rand)
    mc, stderr = mc_average(amplify(f, alpha), rho, cfg.mc_samples,
                            derive_seed(cfg.seed, 11), workers=workers)
    expected = quantum_average(d, t_variable(f))

    # higher-order model: exact polynomial equality through order 4
    q2 = symmetric_from_entries(rng.standard_normal((n, n)))
    q4 = SymmetricForm.from_quadratic_power(symmetric_from_entries(rng.standard_normal((n, n))), 2, 0.5)
    poly = EvenPolynomial({2: SymmetricForm.from_matrix(q2), 4: q4})
    classical = analytic_average(poly, rho, 4)
    generalized = alpha * generalized_average(d, t2n_variable(poly, 2, alpha))

    return _report([replace(c, name=f"pure_{c.name}") for c in pure] + [
        within_sigmas("mixed_quadratic", mc, expected, stderr, 4.0, 0.0),
        relatively_exact("higher_order", classical, generalized, 1e-10),
    ], dim=n, alpha=alpha)


def moments_check(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Pairing-formula moments vs MC at order 2k, k = cfg.order.

    The covariance here is not dispersion-normalized: isotropic means the
    identity, diagonal uses the raw weights, random is trace-normalized to
    dim.  With the identity covariance the two order-4 spot values (3 on a
    repeated axis, 1 on two distinct axes) are checked exactly.
    """
    k = cfg.order
    if 2 * k > MAX_DENSE_ORDER:
        raise ConfigError(f"moments-check supports orders 2k <= {MAX_DENSE_ORDER}, got k={k}")
    shape = cfg.state_spec.get("shape", "isotropic")
    if shape == "isotropic":
        d = np.eye(cfg.dim)
    else:
        d = build_state(cfg.state_spec, cfg.dim, float(cfg.dim)).covariance
    rho = GaussianState(d)

    rng = substream(cfg.seed, 5)
    ak = SymmetricForm.from_dense(rng.standard_normal((cfg.dim,) * (2 * k)))
    batch = rho.sample(derive_seed(cfg.seed, 6), cfg.mc_samples, workers=workers)
    analytic, mc, stderr = moment_mc_check(d, ak, batch)
    checks = [within_sigmas("moment", mc, analytic, stderr, 4.0, 0.0)]
    if shape == "isotropic" and cfg.dim >= 2:
        e1 = np.eye(cfg.dim)[0]
        e2 = np.eye(cfg.dim)[1]
        checks += [
            relatively_exact("repeated_axis", moment_form_eval(d, [e1, e1, e1, e1]), 3.0, 0.0),
            relatively_exact("split_axes", moment_form_eval(d, [e1, e1, e2, e2]), 1.0, 0.0)]
    # bench/workloads.py re-checks the band from these three top-level values
    return _report(checks, order=2 * k, samples=cfg.mc_samples, analytic=analytic, mc=mc,
                   stderr=stderr)


@dataclass(frozen=True)
class TailRow:
    alpha: float
    C: float
    bound: float
    empirical: float
    noise: float


def chebyshev_experiment(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Tail probabilities of the field energy against the dispersion/C bound."""
    alphas = cfg.alpha_grid[:3]
    if len(alphas) < 3:
        raise ConfigError("the tail experiment needs at least 3 grid points")
    rows, checks = [], []
    for i, alpha in enumerate(alphas):
        rho = build_state(cfg.state_spec, cfg.dim, alpha)
        batch = rho.sample(derive_seed(cfg.seed, 20 + i), cfg.mc_samples, workers=workers)
        for mult in (1.0, 10.0, 100.0):
            c = mult * alpha
            bound, empirical = chebyshev_tail(rho, c, batch)
            check = bound_plus_noise(f"tail[{len(rows)}]", empirical, bound,
                                     math.sqrt(bound / cfg.mc_samples), 4.0, (c,))
            rows.append(TailRow(alpha, c, bound, empirical, check.band))
            checks.append(check)
    return _report(checks, rows=rows)


def higher_order_check(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Exactness of the generalized model on even polynomials, MC overlay included."""
    if 2 * cfg.order > MAX_FORM_ORDER:
        raise ConfigError(f"higher-order checks support order n with 2n <= {MAX_FORM_ORDER}, "
                          f"got n={cfg.order}")
    alpha = cfg.alpha_grid[0]
    if cfg.functional_spec.get("family") == "even-polynomial":
        f = build_functional(cfg.functional_spec, cfg.dim)
    else:
        rng = substream(cfg.seed, 3)
        f = EvenPolynomial({
            2: SymmetricForm.from_matrix(symmetric_from_entries(rng.standard_normal((cfg.dim, cfg.dim)))),
            4: SymmetricForm.from_quadratic_power(
                symmetric_from_entries(rng.standard_normal((cfg.dim, cfg.dim))), 2, 1.0),
        })
    rho = build_state(cfg.state_spec, cfg.dim, alpha)
    d = t_state(rho, alpha)
    observable = t2n_variable(f, cfg.order, alpha)
    classical = analytic_average(f, rho, 2 * cfg.order)
    generalized = alpha * generalized_average(d, observable)
    mc, stderr = mc_average(f, rho, cfg.mc_samples, derive_seed(cfg.seed, 4), workers=workers)
    return _report([
        relatively_exact("exactness", classical, generalized, 1e-10),
        within_sigmas("mc_overlay", mc, classical, stderr, 4.0, 0.0),
    ], alpha=alpha, order=cfg.order, relative_error=relative_error(classical, generalized),
        density_operator=d.to_dict(), observable=observable.to_dict())
