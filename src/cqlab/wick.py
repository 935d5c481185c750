"""Gaussian moment machinery: pairing sums, moment forms, generalized traces.

Even moments of a zero-mean Gaussian measure with covariance D are sums
over perfect matchings of covariance contractions; odd moments vanish.
The generalized trace of two k-forms is the full contraction over an
orthonormal basis.
"""

from __future__ import annotations

import numpy as np

from .errors import OrderError, ParityError, SizeError
from .functionals import SymmetricForm
from .gaussian import SampleBatch, mean_stderr
from .hilbert import as_vector, require_symmetric, trace_product
from .pairings import perfect_matchings

MAX_PAIRS = 4          # enumerate_pairings supports k <= 4 (105 matchings)
MAX_TRACE_ORDER = 6    # generalized traces supported through order 6

_EINSUM_LETTERS = "abcdefgh"


def enumerate_pairings(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All (2k-1)!! perfect matchings of {0, ..., 2k-1} in lexicographic order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_PAIRS:
        raise SizeError(f"pairing enumeration capped at k={MAX_PAIRS}, got {k}")
    return perfect_matchings(k)


def moment_form(d, order: int) -> SymmetricForm:
    """Moment form of the Gaussian measure with covariance D at the given even order."""
    dm = require_symmetric(d)
    if order < 2 or order % 2 != 0:
        raise OrderError(f"moment forms exist at even orders >= 2, got {order}")
    if order > 2 * MAX_PAIRS:
        raise SizeError(f"moment forms capped at order {2 * MAX_PAIRS}")
    # sum over matchings of prod (D z_a, z_b) == (2k-1)!! sym(D^(x) k)
    return SymmetricForm("pairing", order, dm.shape[0], matrix=dm,
                         npairs=order // 2, coeff=1.0)


def moment_form_eval(d, args) -> float:
    """Gaussian moment E[(z_1, psi) ... (z_2k, psi)] for covariance D."""
    vs = [as_vector(a) for a in args]
    if len(vs) % 2 != 0:
        raise ParityError(
            f"odd moments vanish identically; got {len(vs)} arguments (misuse)")
    return moment_form(d, len(vs))(*vs)


def _contract_dense_with_pairing(dense: np.ndarray, matrix: np.ndarray, npairs: int,
                                 coeff: float) -> float:
    letters = _EINSUM_LETTERS[: 2 * npairs]
    total = 0.0
    for matching in perfect_matchings(npairs):
        script = letters + "," + ",".join(letters[a] + letters[b] for a, b in matching) + "->"
        total += float(np.einsum(script, dense, *([matrix] * npairs)))
    return coeff * total


def trace_forms(bform: SymmetricForm, aform: SymmetricForm) -> float:
    """Generalized trace: sum over all basis tuples of B(e_j1,..) * A(e_j1,..).

    The value is basis independent; order 2 reduces to the matrix trace
    product.
    """
    if bform.order != aform.order:
        raise OrderError(f"order mismatch: {bform.order} vs {aform.order}")
    if bform.dim != aform.dim:
        raise OrderError(f"dimension mismatch: {bform.dim} vs {aform.dim}")
    if bform.order > MAX_TRACE_ORDER:
        raise OrderError(f"generalized traces capped at order {MAX_TRACE_ORDER}")
    if bform.is_zero or aform.is_zero:
        return 0.0
    if bform.order == 2:
        return trace_product(bform.matrix_representation(), aform.matrix_representation())
    if bform.kind == "pairing":
        return _contract_dense_with_pairing(aform.dense(), bform.matrix, bform.npairs, bform.coeff)
    if aform.kind == "pairing":
        return _contract_dense_with_pairing(bform.dense(), aform.matrix, aform.npairs, aform.coeff)
    return float(np.sum(bform.dense() * aform.dense()))


def gaussian_integral_multilinear(ak: SymmetricForm, d) -> float:
    """Integral of A_k(psi, ..., psi) against the Gaussian measure with covariance D.

    Odd orders integrate to zero exactly; even orders contract the moment
    form of D with A_k.
    """
    if ak.order % 2 != 0:
        return 0.0
    if ak.is_zero:
        return 0.0
    return trace_forms(moment_form(d, ak.order), ak)


def moment_mc_check(d, ak: SymmetricForm, batch: SampleBatch) -> tuple[float, float, float]:
    """(analytic, mc, stderr) for the Gaussian integral of A_k under covariance D.

    The batch must have been drawn from the Gaussian state with covariance D.
    """
    mc, stderr = mean_stderr(ak.eval_diag_batch(batch.samples))
    analytic = gaussian_integral_multilinear(ak, d)
    return analytic, mc, stderr
