"""The classical-to-quantum correspondence map on states and variables.

States: a Gaussian measure with dispersion alpha is sent to the density
operator D = cov/alpha (unit trace).  The extended map divides by the
state's own dispersion, so it also covers approximate-dispersion and
non-Gaussian second-moment states, at the price of injectivity.

Variables: f is sent to half its second derivative at the vacuum.  The
higher-order map keeps one symmetric form per even Taylor order, scaled
by alpha^(k-1)/(2k)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassMembershipError, DegenerateStateError, OrderError
from .functionals import Functional, SymmetricForm, moment_form, trace_forms
from .gaussian import EIG_CLIP_REL, GaussianState
from .hilbert import require_symmetric, trace_product

# a state is in the dispersion-alpha class when |Tr B - alpha| <= EXACT_CLASS_RTOL * alpha
EXACT_CLASS_RTOL = 1e-9
DENSITY_TRACE_ATOL = 1e-9
# the floor GaussianState puts on the eigenvalues of B / Tr B
DENSITY_EIG_FLOOR = -EIG_CLIP_REL


@dataclass(frozen=True)
class DensityOperator:
    """Symmetric positive unit-trace operator.

    Construction checks symmetry, the trace and the smallest eigenvalue.
    `t_state` builds its operator through `_from_gaussian` instead, which
    checks the trace only: the GaussianState has already checked B's
    symmetry and spectrum.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_symmetric(self.matrix)
        object.__setattr__(self, "matrix", m)
        _require_unit_trace(m)
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < DENSITY_EIG_FLOOR:
            raise ValueError(f"density operator has eigenvalue {min_eig:.3e} < {DENSITY_EIG_FLOOR}")

    @classmethod
    def _from_gaussian(cls, rho: GaussianState, alpha: float) -> "DensityOperator":
        """B/alpha for a state whose dispersion is within EXACT_CLASS_RTOL of
        alpha.  B is exactly symmetric and its eigenvalues clear
        -EIG_CLIP_REL * Tr B, so those of B/alpha clear DENSITY_EIG_FLOOR to
        within that relative tolerance."""
        d = object.__new__(cls)
        object.__setattr__(d, "matrix", _require_unit_trace(rho.covariance / alpha))
        return d

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dict(self) -> dict:
        return {"order": 2, "dim": self.dim,
                "matrix": [[float(x) for x in row] for row in self.matrix]}


def _require_unit_trace(m: np.ndarray) -> np.ndarray:
    tr = float(np.trace(m))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"density operator must have unit trace, got {tr!r}")
    return m


@dataclass(frozen=True)
class ObservableMultiple:
    """Observable of the generalized model: forms at orders 2, 4, ..., 2n."""

    forms: tuple[SymmetricForm, ...]

    def __post_init__(self):
        orders = [f.order for f in self.forms]
        if orders != list(range(2, 2 * len(orders) + 1, 2)):
            raise OrderError(f"expected orders 2, 4, ... in steps of 2, got {orders}")

    def to_dict(self) -> dict:
        return {"orders": [f.order for f in self.forms],
                "components": [f.to_dict() for f in self.forms]}


def t_state(rho: GaussianState, alpha: float) -> DensityOperator:
    """Map a dispersion-alpha Gaussian state to D = cov/alpha.

    This is the one place that decides membership in the alpha class; a
    state outside it raises ClassMembershipError.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    disp = rho.dispersion()
    if disp == 0.0:
        raise DegenerateStateError("zero-covariance state has no quantum image")
    if abs(disp - alpha) > EXACT_CLASS_RTOL * alpha:
        raise ClassMembershipError(
            f"state dispersion {disp!r} is outside the alpha={alpha!r} class")
    return DensityOperator._from_gaussian(rho, alpha)


def t_state_extended(state) -> DensityOperator:
    """Map any zero-mean second-moment state to cov/dispersion (unit trace).

    Accepts anything exposing `covariance` and `dispersion()`; this map is
    deliberately not injective.
    """
    disp = float(state.dispersion())
    if not disp > 0.0:
        raise DegenerateStateError("state with zero dispersion has no normalized image")
    return DensityOperator(np.asarray(state.covariance, dtype=np.float64) / disp)


def t_variable(f: Functional) -> np.ndarray:
    """Map a variable to half its second derivative at the vacuum."""
    return 0.5 * f.taylor_form(2).dense()


def quantum_average(d: DensityOperator, a) -> float:
    """Trace-formula average Tr D A."""
    return trace_product(d.matrix, a)


def t2n_variable(f: Functional, n: int, alpha: float) -> ObservableMultiple:
    """Higher-order map: component at order 2k is alpha^(k-1)/(2k)! f^(2k)(0)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    forms = []
    for k in range(1, n + 1):
        form = f.taylor_form(2 * k)  # refuses an order whose (2k)! is not a double
        try:
            power = alpha ** (k - 1)
        except OverflowError:
            raise ValueError(f"alpha^{k - 1} overflows a double at alpha={alpha!r}") from None
        # two scalings: alpha^(k-1) / (2k)! as one double underflows while the term matters
        forms.append(form.scaled(1.0 / math.factorial(2 * k)).scaled(power))
    return ObservableMultiple(tuple(forms))


def generalized_average(d: DensityOperator, a: ObservableMultiple) -> float:
    """Average in the generalized model: sum_k Tr e(2k, D) A_2k."""
    return sum((trace_forms(moment_form(d.matrix, form.order), form) for form in a.forms), 0.0)
