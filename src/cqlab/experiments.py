"""Experiment orchestration: Monte-Carlo vs analytic averages, dispersion
sweeps with remainder-order fitting, pure-state demonstrations, sub-dispersion
states, non-Gaussian second-moment states, and the small-dimension end-to-end
demo.

Remainder fitting uses the closed-form classical average, which every
family has (exact for polynomials; determinant formula for the sin/cos
families), because MC noise at small dispersion swamps the quadratic-order
remainders at feasible sample counts; the sweep reports each row's MC mean
beside it.  A sweep builds one state for the whole grid: every state shape
has covariance alpha * B_1, so a grid point is a dispersion ratio, its draws
are the first state's rescaled, each chunk's quadratic form (or polynomial
terms) is computed once and scaled per grid point, and its closed form and
density operator come from the first state's one factorization.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .correspondence import (
    EXACT_CLASS_RTOL,
    generalized_average,
    quantum_average,
    t2n_variable,
    t_state,
    t_state_extended,
    t_variable,
)
from .errors import ClassMembershipError, ConfigError
from .functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Functional,
    Quadratic,
    SinQuad,
    SymmetricForm,
    amplify,
    moment_form,
    require_dense_size,
)
from .gaussian import (
    FINITE_QM_TAG,
    HIGHER_ORDER_TAG,
    MOMENTS_TAG,
    OPERATOR_TAG,
    STATE_TAG,
    GaussianState,
    Moments,
    chebyshev_tail,
    draw_chunked,
    exact_span_coefficients,
    mc_average,
    pure_state_measure,
    substream,
)
from .hilbert import as_vector, operator_norm, symmetric_from_entries, trace_product
from .wick import gaussian_integral_multilinear, moment_mc_check

# Large odd stride so per-row substream seeds never collide for small indices.
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, index: int) -> int:
    return (seed + index * _SEED_STRIDE) & _MASK64


# ---------------------------------------------------------------------------
# configuration


DEFAULT_ALPHA_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


@dataclass(frozen=True)
class ExperimentConfig:
    """The owner of the config format: `from_json` reads it, `to_json` writes it.
    Every construction, `replace` included, checks `to_json()` against
    `CONFIG_SCHEMA`, then the value ranges, raising a one-line ConfigError."""

    dim: int
    alpha_grid: tuple[float, ...]
    functional_spec: dict
    state_spec: dict
    mc_samples: int
    seed: int
    order: int = 1
    slope_band: tuple[float, float] | None = None

    def __post_init__(self):
        check_config(self.to_json())
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
        band = self.slope_band
        if band is not None:
            if len(band) != 2 or band[0] > band[1] or not all(map(math.isfinite, band)):
                raise ConfigError("'slope_band' must be [lo, hi], finite numbers with lo <= hi")
            object.__setattr__(self, "slope_band", tuple(band))

    @classmethod
    def from_json(cls, raw) -> "ExperimentConfig":
        """The config of a parsed JSON document, with defaults filled in."""
        check_config(raw)
        for key in ("dim", "functional", "mc_samples", "seed"):
            if key not in raw:
                raise ConfigError(f"missing required config key: {key!r}")
        return cls(dim=raw["dim"], alpha_grid=raw.get("alpha_grid", DEFAULT_ALPHA_GRID),
                   functional_spec=raw["functional"],
                   state_spec=raw.get("state", {"shape": "isotropic"}),
                   mc_samples=raw["mc_samples"], seed=raw["seed"], order=raw.get("order", 1),
                   slope_band=raw.get("slope_band"))

    def to_json(self) -> dict:
        """The config as JSON data, every key present; tuples become lists."""
        grid, band = (list(x) if isinstance(x, tuple) else x
                      for x in (self.alpha_grid, self.slope_band))
        return {"dim": self.dim, "alpha_grid": grid, "functional": self.functional_spec,
                "state": self.state_spec, "mc_samples": self.mc_samples, "seed": self.seed,
                "order": self.order, "slope_band": band}


# The config format.  A schema is int or float (a JSON number that is not a
# boolean and fits a double); None or a literal string, matched exactly; a
# frozenset of allowed names; [s], a list of s; {key: s}, an object with no
# other keys; or a tuple of alternatives, one per JSON kind.  Null means
# "absent" where allowed.
_OPERATOR_SCHEMA = (None, "identity", {"diagonal": [float], "matrix": [[float]],
                                       "random": {"seed": int, "scale": float}})
CONFIG_SCHEMA = {
    "dim": int,
    "alpha_grid": [float],
    "functional": {
        "family": frozenset({"quadratic", "sin-quad", "cos-quad-minus-one", "even-polynomial"}),
        "operator": _OPERATOR_SCHEMA,
        "quadratic": _OPERATOR_SCHEMA,
        "quartic": (None, {"operator": _OPERATOR_SCHEMA, "coeff": float}),
    },
    "state": {"shape": frozenset({"isotropic", "diagonal", "rank1", "random"}),
              "weights": [float], "psi": [float], "seed": int,
              "sampler": frozenset({"product-laplace", "uniform-sphere"})},
    "mc_samples": int,
    "seed": int,
    "order": int,
    "slope_band": (None, [float]),
}
_LEAVES = {  # a JSON true is an int to Python; a 400-digit integer is no double
    int: (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer", "integers"),
    float: (lambda x: isinstance(x, float) or _LEAVES[int][0](x) and abs(x) <= sys.float_info.max,
            "a number", "numbers"),
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
    if isinstance(schema, frozenset):  # a list is unhashable, so test the kind first
        return isinstance(value, str) and value in schema
    return value == schema  # None or a literal string; no JSON value equals a dict or tuple


def _describe(schema, plural: bool = False) -> str:
    if isinstance(schema, tuple):
        return " or ".join(map(_describe, schema))
    if isinstance(schema, list):
        return f"{'lists' if plural else 'a list'} of {_describe(schema[0], True)}"
    if isinstance(schema, type):
        return _LEAVES[schema][1 + plural]
    if isinstance(schema, frozenset):
        return "one of " + ", ".join(map(repr, sorted(schema)))
    return "an object" if isinstance(schema, dict) else repr(schema)


def _random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric part of a scaled standard-normal dim x dim draw."""
    return symmetric_from_entries(scale * rng.standard_normal((dim, dim)))


def _random_polynomial(rng: np.random.Generator, dim: int, quartic_scale: float) -> EvenPolynomial:
    """(Q psi, psi) + quartic_scale (R psi, psi)^2, Q then R from `_random_symmetric`."""
    return EvenPolynomial({
        2: SymmetricForm.from_matrix(_random_symmetric(rng, dim)),
        4: SymmetricForm.from_quadratic_power(_random_symmetric(rng, dim), 2, quartic_scale),
    })


def _random_state(rng: np.random.Generator, dim: int, alpha: float) -> GaussianState:
    """Gaussian state with covariance m m^T scaled to dispersion alpha, m standard normal."""
    m = rng.standard_normal((dim, dim))
    b = m @ m.T
    return GaussianState(b * (alpha / np.trace(b)))


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
    rng = substream(payload.get("seed", 0), OPERATOR_TAG)  # "random"
    return _random_symmetric(rng, dim, payload.get("scale", 1.0))


# the families that are g((A psi, psi)) of one operator
_ONE_OPERATOR_FAMILIES = {"quadratic": Quadratic, "sin-quad": SinQuad,
                          "cos-quad-minus-one": CosQuadMinusOne}


def build_functional(spec: dict, dim: int) -> Functional:
    family = spec.get("family")
    if family is None:
        raise ConfigError("this run needs functional.family")
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
    return _ONE_OPERATOR_FAMILIES[family](build_operator(spec.get("operator"), dim))


def build_state(spec: dict, dim: int, alpha: float) -> GaussianState:
    """Gaussian state of dispersion alpha with the configured covariance shape."""
    shape = spec.get("shape", "isotropic")
    if shape == "isotropic":
        return GaussianState(np.eye(dim) * (alpha / dim))
    if shape == "diagonal":
        w = np.asarray(spec.get("weights"), dtype=np.float64)
        with np.errstate(over="ignore"):  # finite weights whose sum overflows fail below
            total = w.sum()
        if (w.shape != (dim,) or not np.all(np.isfinite(w)) or np.any(w < 0.0)
                or not 0.0 < total < math.inf):
            raise ConfigError("diagonal state needs finite nonnegative weights of length dim")
        if total < sys.float_info.min:  # subnormal: alpha * w / total would lose digits
            w = w / w.max()
            total = w.sum()
        return GaussianState(np.diag(alpha * w / total))
    if shape == "rank1":
        psi = _state_psi(spec, dim)
        if not (np.all(np.isfinite(psi)) and np.any(psi)):
            raise ConfigError("rank1 state needs a finite nonzero psi")
        with np.errstate(over="ignore"):
            nrm2 = float(psi @ psi)
        if not sys.float_info.min <= nrm2 < math.inf:  # overflowed, underflowed or subnormal
            psi = psi / np.abs(psi).max()
            nrm2 = float(psi @ psi)
        return pure_state_measure(psi / math.sqrt(nrm2), alpha)
    return _random_state(substream(spec.get("seed", 0), STATE_TAG), dim, alpha)  # "random"


def _state_psi(spec: dict, dim: int) -> np.ndarray:
    """state.psi as a length-dim vector; a missing or wrong-length psi is
    an error that names the key."""
    psi = spec.get("psi")
    if psi is None:
        raise ConfigError("rank1 states and pure-state runs need state.psi")
    if len(psi) != dim:
        raise ConfigError(f"state.psi has length {len(psi)}, but dim is {dim}")
    return np.asarray(psi, dtype=np.float64)


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

    def whitened(self, f: Functional) -> tuple:
        """(f, `fill`): a non-Gaussian state has no factor to pull f back
        through, so `mc_average` evaluates f on its own draws."""
        return f, self.fill

    @classmethod
    def product_laplace(cls, variances) -> "SecondMomentState":
        """Independent Laplace coordinates of the given variances.  A
        Laplace(0, 1) value is drawn as the difference of two independent
        Exp(1) values, so a chunk of m rows takes two (m, dim) exponential
        fills, one after the other, and no logarithm per value."""
        v = np.asarray(variances, dtype=np.float64)
        if np.any(v < 0.0):
            raise ValueError("variances must be nonnegative")
        scales = np.sqrt(v / 2.0)  # Laplace(0, b) has variance 2 b^2

        def fill(rng: np.random.Generator, m: int) -> np.ndarray:
            e = rng.standard_exponential((2, m, v.size))
            return (e[0] - e[1]) * scales

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
    if spec.get("sampler", "product-laplace") == "product-laplace":
        return SecondMomentState.product_laplace(np.full(dim, alpha / dim))
    return SecondMomentState.uniform_sphere(math.sqrt(alpha), dim)


# ---------------------------------------------------------------------------
# averages


def analytic_average(f: Functional, rho: GaussianState, max_order: int) -> float:
    """Taylor/Wick average: sum over even orders 2k <= max_order of
    (1/(2k)!) Tr e(2k, B) f^(2k)(0).  Exact when f is a polynomial of
    degree <= max_order."""
    total = 0.0
    for two_k in range(2, max_order + 1, 2):
        total += (gaussian_integral_multilinear(f.taylor_form(two_k), rho.covariance)
                  / math.factorial(two_k))
    return total


def closed_form_average(f: Functional, rho: GaussianState,
                        ratios: Sequence[float] = (1.0,)) -> list[float]:
    """Exact classical averages of f under rho at the dispersion `ratios` (`f.closed_form`)."""
    return f.closed_form(rho, ratios)


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


# the k of every k-sigma band on a Monte-Carlo statistic
MC_SIGMAS = 4.0


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def within_sigmas(name: str, statistic, reference, stderr, floor: float = 0.0) -> Check:
    """|statistic - reference| <= MC_SIGMAS * stderr + floor."""
    band = MC_SIGMAS * stderr + floor
    return _gate(name, statistic, reference, stderr, band, MC_SIGMAS,
                 abs(statistic - reference) <= band, floor)


def relatively_exact(name: str, statistic, reference, rtol: float) -> Check:
    """relative_error(statistic, reference) <= rtol; rtol 0 asks for equality."""
    return _gate(name, statistic, reference, None, rtol, None,
                 relative_error(statistic, reference) <= rtol)


def bound_plus_noise(name: str, statistic, bound, stderr, bound_inputs: tuple) -> Check:
    """statistic <= bound + MC_SIGMAS * stderr; `bound_inputs` are the numbers
    the bound was computed from (a bound at an infinite threshold is 0)."""
    band = MC_SIGMAS * stderr
    return _gate(name, statistic, bound, stderr, band, MC_SIGMAS, statistic <= bound + band,
                 *bound_inputs)


def in_range(name: str, statistic, lo: float, hi: float) -> Check:
    """lo <= statistic <= hi."""
    return _gate(name, statistic, lo / 2 + hi / 2, None, hi / 2 - lo / 2, None,
                 lo <= statistic <= hi, lo, hi)


def separated(name: str, statistic, reference, stderr) -> Check:
    """|statistic - reference| > MC_SIGMAS * stderr, the complement of
    `within_sigmas`: a zero stderr separates a nonzero gap only."""
    band = MC_SIGMAS * stderr
    return _gate(name, statistic, reference, stderr, band, MC_SIGMAS,
                 abs(statistic - reference) > band)


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
    classical_analytic: float
    quantum_term: float
    remainder: float
    stderr: float
    below_noise: bool


def alpha_sweep(cfg: ExperimentConfig) -> dict:
    """Classical vs quantum-term averages along the dispersion grid, with a
    log-log fit of the remainder order.

    The classical column is the family's closed form.  Rows whose remainder
    is at the floating-point floor of the exact values are flagged and
    excluded from the fit.  The report checks per row the classical average
    against the quantum term, failing on a non-finite value (a row's stderr
    is not finite whenever its MC mean is not), and the fitted slope against
    `cfg.slope_band` = [lo, hi] when one is given.

    Every state shape has covariance alpha * B_1, so one state rho (of B)
    is built at the first alpha, and row i is the state r_i B, r_i =
    alpha_i / alpha_0 (the first exactly 1.0): its quantum term is
    alpha_i Tr D A with rho's D = B / alpha_0, and its closed form and MC
    mean come from one call each at the ratios.  `mc_average` draws once,
    with seed `derive_seed(cfg.seed, 0)`.  Each row's MC mean is unbiased
    with its own stderr, but the rows' MC errors are correlated; the fit
    reads only the closed forms.
    """
    grid = cfg.alpha_grid
    if len(grid) < 3:
        raise ConfigError("a sweep needs at least 3 grid points")
    if grid[0] / grid[-1] < 100.0:
        raise ConfigError("a sweep grid must span at least two decades")
    ratios = [alpha / grid[0] for alpha in grid]
    if not ratios[-1] > 0.0:
        raise ConfigError(f"alpha_grid spans too far: {grid[-1]!r} / {grid[0]!r} underflows to 0")
    f = build_functional(cfg.functional_spec, cfg.dim)
    rho = build_state(cfg.state_spec, cfg.dim, grid[0])
    trace_da = quantum_average(t_state(rho, grid[0]), t_variable(f))
    averages = mc_average(f, rho, cfg.mc_samples, derive_seed(cfg.seed, 0), ratios)
    classicals = closed_form_average(f, rho, ratios)
    rows = []
    for alpha, classical, (mc, stderr) in zip(grid, classicals, averages):
        quantum_term = alpha * trace_da
        remainder = classical - quantum_term
        floor = 1e-12 * max(abs(classical), abs(quantum_term), 1.0)
        rows.append(SweepRow(
            alpha=alpha, classical_mc=mc, classical_analytic=classical,
            quantum_term=quantum_term, remainder=remainder, stderr=stderr,
            below_noise=abs(remainder) <= floor))
    fit_rows = [r for r in rows if not r.below_noise]
    slope = intercept = None
    if len(fit_rows) >= 2:
        logs_a = np.log(np.array([r.alpha for r in fit_rows]))
        logs_r = np.log(np.array([abs(r.remainder) for r in fit_rows]))
        slope, intercept = map(float, np.polyfit(logs_a, logs_r, 1))
    checks = [measured(f"remainder[{i}]", r.classical_analytic, r.quantum_term, r.stderr)
              for i, r in enumerate(rows)]
    if cfg.slope_band is not None:
        checks.append(in_range("fitted_slope", math.nan if slope is None else slope,
                               *cfg.slope_band))
    return _report(checks, fitted_slope=slope, fitted_intercept=intercept,
                   noise_limited=slope is None, excluded_rows=len(rows) - len(fit_rows),
                   slope_band=cfg.slope_band, rows=rows)


# ---------------------------------------------------------------------------
# pure states


def pure_state_experiment(psi, alpha: float, a, n_samples: int, seed: int) -> dict:
    """Rank-1 mixture demo: amplified average, exact span membership, and the
    sample-covariance shape against psi (x) psi.

    Each chunk of draws x, rows of width dim, is drawn, checked and reduced
    to partials: the `Moments` of its amplified values, and its x^T x, the
    number of rows that are exact multiples of the direction and the number
    of off-axis entries that are zero.  The partials are merged in chunk
    order.  A chunk is formed column-major, x^T = F_a z^T of shape (dim, m),
    one product per entry for the rank-1 factor, so row i is z_i times the
    direction and the span check tries the chunk's own normals z_i first,
    and every check reduces along the contiguous axis.
    """
    v = as_vector(psi)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"the quantum comparison needs a unit vector, got norm {nrm!r}")
    rho = pure_state_measure(v, alpha)
    f = Quadratic(a)
    fmat = rho.active_factor  # no column when alpha psi psi^T underflows to zero
    direction = fmat[:, 0] if fmat.shape[1] else np.zeros(rho.dim)
    off_axis = direction == 0.0

    def fill(rng: np.random.Generator, m: int) -> tuple[Moments, np.ndarray, int, int]:
        z = rho.white(rng, m)  # (m, rank), rank 0 or 1
        xt = fmat @ z.T
        ok, _coeffs = exact_span_coefficients(xt.T, direction, guess=z.ravel())
        return (Moments.of(f.eval_batch(xt.T)[:, 0] / alpha), xt @ xt.T,
                np.count_nonzero(ok), np.count_nonzero(xt[off_axis] == 0.0))

    amplified, cov_sum, span, zeros = draw_chunked(seed, n_samples, fill, rho.dim).partial
    [(amp_mean, amp_stderr)] = amplified.mean_stderr()
    expected = float(v @ f.operator @ v)
    off_axis_entries = n_samples * int(np.count_nonzero(off_axis))

    d = rho.covariance / alpha  # B's squares underflow from alpha ~ 1e-160 down, D's do not
    cov_err = np.abs(cov_sum / n_samples / alpha - np.outer(v, v))
    band = MC_SIGMAS * np.sqrt((np.outer(np.diag(d), np.diag(d)) + d ** 2) / n_samples)

    # span, off_axis_zero and covariance_shape are fractions of rows or
    # entries that hold, so each must be exactly 1
    return _report([
        within_sigmas("amplified_average", amp_mean, expected, amp_stderr),
        relatively_exact("span", span / n_samples, 1.0, 0.0),
        relatively_exact("off_axis_zero", zeros / off_axis_entries if off_axis_entries else 1.0,
                         1.0, 0.0),
        relatively_exact("covariance_shape", np.mean(cov_err <= band + 1e-15), 1.0, 0.0),
    ], alpha=alpha, samples=n_samples, covariance_max_error=float(cov_err.max()))


def pure_state_run(cfg: ExperimentConfig) -> dict:
    """`pure_state_experiment` on state.psi, the functional's operator and the
    first grid alpha."""
    psi = _state_psi(cfg.state_spec, cfg.dim)
    a = build_operator(cfg.functional_spec.get("operator"), cfg.dim)
    return pure_state_experiment(psi, cfg.alpha_grid[0], a, cfg.mc_samples, cfg.seed)


# ---------------------------------------------------------------------------
# sub-dispersion states


def sub_alpha_states(alpha: float, shrink: float, dim: int, hamiltonian,
                     n_samples: int, seed: int) -> dict:
    """States with dispersion shrink*alpha: the exact-dispersion map must
    reject them (they have no quantum image), the extended map still
    normalizes them, and the mean energy obeys |<H>| <= ||H|| sigma^2."""
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    f = Quadratic(hamiltonian)
    sigma2 = shrink * alpha
    rho = build_state({"shape": "isotropic"}, dim, sigma2)

    try:
        t_state(rho, alpha)
        error = None
    except ClassMembershipError as exc:
        error = str(exc)

    extended = t_state_extended(rho)
    [(mean, stderr)] = mc_average(f, rho, n_samples, seed)
    norm = operator_norm(f.operator)
    boundary = abs(sigma2 - alpha) <= EXACT_CLASS_RTOL * alpha
    return _report([
        # 1 if the exact map accepted the state, against 1 if it should have
        relatively_exact("exact_map_accepts", error is None, boundary, 0.0),
        relatively_exact("extended_trace", np.trace(extended.matrix), 1.0, 1e-12),
        bound_plus_noise("energy", abs(mean), norm * sigma2, stderr, (norm, sigma2)),
    ], alpha=alpha, shrink=shrink, dispersion=sigma2, exact_map_error=error)


# ---------------------------------------------------------------------------
# non-Gaussian states


def nongaussian_experiment(state: SecondMomentState, a, n_samples: int, seed: int) -> dict:
    """Quadratic averages see only the covariance; a quartic form exposes the
    non-Gaussian fourth moments against the Gaussian pairing prediction."""
    quad = Quadratic(a)
    [(mean, stderr)] = mc_average(quad, state, n_samples, seed)
    expected = trace_product(state.covariance, quad.operator)

    quartic = EvenPolynomial({4: SymmetricForm.from_quadratic_power(np.eye(state.dim), 2, 1.0)})
    [(q_mean, q_stderr)] = mc_average(quartic, state, n_samples, derive_seed(seed, 1))
    [gaussian_pred] = quartic.closed_form(state)
    return _report([
        # the FP floor matters when the statistic is constant (uniform sphere
        # with A = I), where both the error and stderr sit at round-off scale;
        # it is relative, so it cannot swallow the band at a small dispersion
        within_sigmas("quadratic", mean, expected, stderr, 1e-12 * max(abs(expected), abs(mean))),
        separated("quartic", q_mean, gaussian_pred, q_stderr),
    ], kind=state.kind, samples=n_samples)


def nongaussian_run(cfg: ExperimentConfig) -> dict:
    """`nongaussian_experiment` on state.sampler at the first grid alpha, with
    the functional's operator."""
    state = build_second_moment_state(cfg.state_spec, cfg.dim, cfg.alpha_grid[0])
    a = build_operator(cfg.functional_spec.get("operator"), cfg.dim)
    return nongaussian_experiment(state, a, cfg.mc_samples, cfg.seed)


# ---------------------------------------------------------------------------
# small-dimension end-to-end demo


def finite_qm_demo(cfg: ExperimentConfig) -> dict:
    """Full pipeline on R^n for small n with all analytic cross-checks."""
    if cfg.dim > 4:
        raise ConfigError("the end-to-end demo runs at dim <= 4")
    alpha = cfg.alpha_grid[0]
    n = cfg.dim
    rng = substream(cfg.seed, FINITE_QM_TAG)

    # pure state branch
    psi = np.ones(n) / math.sqrt(n)
    a_op = build_operator(cfg.functional_spec.get("operator"), n) \
        if cfg.functional_spec.get("family") == "quadratic" else np.eye(n)
    pure = pure_state_experiment(psi, alpha, a_op, cfg.mc_samples,
                                 derive_seed(cfg.seed, 10))["checks"]

    # random mixed state, quadratic variable: amplified MC vs Tr D A
    rho = _random_state(rng, n, alpha)
    d = t_state(rho, alpha)
    f = Quadratic(_random_symmetric(rng, n))
    [(mc, stderr)] = mc_average(amplify(f, alpha), rho, cfg.mc_samples, derive_seed(cfg.seed, 11))
    expected = quantum_average(d, t_variable(f))

    # higher-order model: exact polynomial equality through order 4
    poly = _random_polynomial(rng, n, 0.5)
    [classical] = poly.closed_form(rho)
    generalized = alpha * generalized_average(d, t2n_variable(poly, 2, alpha))

    return _report([replace(c, name=f"pure_{c.name}") for c in pure] + [
        within_sigmas("mixed_quadratic", mc, expected, stderr),
        relatively_exact("higher_order", classical, generalized, 1e-10),
    ], dim=n, alpha=alpha)


def moments_check(cfg: ExperimentConfig) -> dict:
    """Pairing-formula moments vs MC at order 2k, k = cfg.order.

    The covariance here has trace dim rather than a grid alpha: isotropic
    means the identity, diagonal is dim * w / sum(w) for the weights w, and
    random is trace-normalized to dim.  With the identity covariance the two
    order-4 spot values (3 on a repeated axis, 1 on two distinct axes) are
    checked exactly.
    """
    k = cfg.order
    require_dense_size(2 * k, cfg.dim)
    shape = cfg.state_spec.get("shape", "isotropic")
    rho = build_state(cfg.state_spec, cfg.dim, float(cfg.dim))
    d = rho.covariance

    rng = substream(cfg.seed, MOMENTS_TAG)
    ak = SymmetricForm.from_dense(rng.standard_normal((cfg.dim,) * (2 * k)))
    analytic, mc, stderr = moment_mc_check(rho, ak, cfg.mc_samples, derive_seed(cfg.seed, 6))
    checks = [within_sigmas("moment", mc, analytic, stderr)]
    if shape == "isotropic" and cfg.dim >= 2:
        e1 = np.eye(cfg.dim)[0]
        e2 = np.eye(cfg.dim)[1]
        checks += [
            relatively_exact("repeated_axis", moment_form(d, 4)(e1, e1, e1, e1), 3.0, 0.0),
            relatively_exact("split_axes", moment_form(d, 4)(e1, e1, e2, e2), 1.0, 0.0)]
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


def _tail_counts(rho: GaussianState, thresholds: Sequence[float], n_samples: int,
                 seed: int) -> tuple[int, ...]:
    """How many of `n_samples` draws from rho have an energy ||psi||^2 above
    each threshold.  Each chunk, rows of width dim, is kept as its counts
    only, which are exact, so no energy is held."""
    def fill(rng: np.random.Generator, m: int) -> tuple[int, ...]:
        x = rho.fill(rng, m)
        energies = np.einsum("pi,pi->p", x, x)
        return tuple(np.count_nonzero(energies > c) for c in thresholds)

    return draw_chunked(seed, n_samples, fill, rho.dim).partial


def chebyshev_experiment(cfg: ExperimentConfig) -> dict:
    """Tail probabilities of the field energy against the dispersion/C bound."""
    alphas = cfg.alpha_grid[:3]
    if len(alphas) < 3:
        raise ConfigError("the tail experiment needs at least 3 grid points")
    rows, checks = [], []
    for i, alpha in enumerate(alphas):
        rho = build_state(cfg.state_spec, cfg.dim, alpha)
        thresholds = [mult * alpha for mult in (1.0, 10.0, 100.0)]
        counts = _tail_counts(rho, thresholds, cfg.mc_samples, derive_seed(cfg.seed, 20 + i))
        for c, above in zip(thresholds, counts):
            bound, empirical = chebyshev_tail(rho, c, above, cfg.mc_samples)
            check = bound_plus_noise(f"tail[{len(rows)}]", empirical, bound,
                                     math.sqrt(bound / cfg.mc_samples), (c,))
            rows.append(TailRow(alpha, c, bound, empirical, check.band))
            checks.append(check)
    return _report(checks, rows=rows)


def higher_order_check(cfg: ExperimentConfig) -> dict:
    """Exactness of the generalized model on even polynomials, MC overlay included."""
    alpha = cfg.alpha_grid[0]
    if cfg.functional_spec.get("family") == "even-polynomial":
        f = build_functional(cfg.functional_spec, cfg.dim)
    else:
        f = _random_polynomial(substream(cfg.seed, HIGHER_ORDER_TAG), cfg.dim, 1.0)
    rho = build_state(cfg.state_spec, cfg.dim, alpha)
    d = t_state(rho, alpha)
    observable = t2n_variable(f, cfg.order, alpha)
    classical = analytic_average(f, rho, 2 * cfg.order)
    # the MC mean averages every term of f, not only those up to order 2n
    [exact] = f.closed_form(rho)
    generalized = alpha * generalized_average(d, observable)
    [(mc, stderr)] = mc_average(f, rho, cfg.mc_samples, derive_seed(cfg.seed, 4))
    return _report([
        relatively_exact("exactness", classical, generalized, 1e-10),
        within_sigmas("mc_overlay", mc, exact, stderr),
    ], alpha=alpha, order=cfg.order, relative_error=relative_error(classical, generalized),
        density_operator=d.to_dict(), observable=observable.to_dict())
