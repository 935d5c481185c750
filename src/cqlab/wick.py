"""Gaussian moment machinery: pairing sums, moment forms, generalized traces.

Even moments of a zero-mean Gaussian measure with covariance D are sums
over perfect matchings of covariance contractions; odd moments vanish.
The generalized trace of two k-forms is the full contraction over an
orthonormal basis.

Two factored (pairing) forms contract in closed form, with no dense tensor
and no sum over matchings.  The moment form of D contracted with the
pairing form of M^(x)k is (2k-1)!! E[(M psi, psi)^k] for psi ~ N(0, D), and
that moment follows from the quadratic-form cumulants
kappa_l = 2^(l-1) (l-1)! Tr((DM)^l) (Mathai & Provost, Quadratic Forms in
Random Variables, 1992) by the moment-cumulant recursion.  Both sides are
polynomials in the entries of D, so the identity holds for any symmetric D.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, OrderError, ParityError, SizeError
from .functionals import MAX_FORM_ORDER, SymmetricForm
from .gaussian import SampleBatch, mean_stderr
from .hilbert import as_vector, require_symmetric, trace_product
from .pairings import double_factorial, perfect_matchings

_EINSUM_LETTERS = "abcdefgh"


def enumerate_pairings(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All (2k-1)!! perfect matchings of {0, ..., 2k-1} in lexicographic order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_FORM_ORDER // 2:
        raise SizeError(f"pairing enumeration capped at k={MAX_FORM_ORDER // 2}, got {k}")
    return perfect_matchings(k)


def moment_form(d, order: int) -> SymmetricForm:
    """Moment form of the Gaussian measure with covariance D at the given even order."""
    dm = require_symmetric(d)
    if order < 2 or order % 2 != 0:
        raise OrderError(f"moment forms exist at even orders >= 2, got {order}")
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


def _quadratic_form_moment(d: np.ndarray, m: np.ndarray, k: int) -> float:
    """E[(M psi, psi)^k] for psi ~ N(0, D), from the cumulants
    kappa_l = 2^(l-1) (l-1)! Tr((DM)^l) and
    m_n = sum_{j=1..n} C(n-1, j-1) kappa_j m_(n-j), m_0 = 1."""
    dm = d @ m
    powers = [dm]
    for _ in range(k - 1):
        powers.append(powers[-1] @ dm)
    # kappas[l] is kappa_(l+1)
    kappas = [2 ** l * math.factorial(l) * float(np.trace(p)) for l, p in enumerate(powers)]
    moments = [1.0]
    for n in range(1, k + 1):
        moments.append(sum(math.comb(n - 1, j - 1) * kappas[j - 1] * moments[n - j]
                           for j in range(1, n + 1)))
    return moments[k]


def _contract_dense_with_pairing(dense: np.ndarray, matrix: np.ndarray, npairs: int,
                                 coeff: float) -> float:
    # a dense form is exactly symmetric, so all (2k-1)!! matchings contract
    # to the value of the first one, (0,1)(2,3)...
    letters = _EINSUM_LETTERS[: 2 * npairs]
    script = letters + "," + ",".join(letters[i:i + 2] for i in range(0, 2 * npairs, 2)) + "->"
    value = float(np.einsum(script, dense, *([matrix] * npairs)))
    return coeff * double_factorial(2 * npairs - 1) * value


def trace_forms(bform: SymmetricForm, aform: SymmetricForm) -> float:
    """Generalized trace: sum over all basis tuples of B(e_j1,..) * A(e_j1,..).

    The value is basis independent; order 2 reduces to the matrix trace
    product, and two pairing forms contract in closed form at any order.
    """
    if bform.order != aform.order:
        raise OrderError(f"order mismatch: {bform.order} vs {aform.order}")
    if bform.dim != aform.dim:
        raise DimensionMismatchError(f"dimension mismatch: {bform.dim} vs {aform.dim}")
    if bform.is_zero or aform.is_zero:
        return 0.0
    if bform.order == 2:
        return trace_product(bform.matrix_representation(), aform.matrix_representation())
    if bform.kind == "pairing" and aform.kind == "pairing":
        k = bform.npairs
        return (bform.coeff * aform.coeff * double_factorial(2 * k - 1)
                * _quadratic_form_moment(bform.matrix, aform.matrix, k))
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
