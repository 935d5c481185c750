"""Gaussian integrals of multilinear forms and their Monte-Carlo checks.  A
check is `mc_average` of the one-term even polynomial of its form, so it
takes even orders only.

The forms themselves, their moment forms and their contraction (the
generalized trace) live in `functionals`, beside `SymmetricForm`.
"""

from __future__ import annotations

from .functionals import EvenPolynomial, SymmetricForm, moment_form, trace_forms
from .gaussian import GaussianState, mc_average


def gaussian_integral_multilinear(ak: SymmetricForm, d) -> float:
    """Integral of A_k(psi, ..., psi) against the Gaussian measure with covariance D.

    Odd orders integrate to zero exactly; even orders contract the moment
    form of D with A_k.
    """
    if ak.order % 2 != 0:
        return 0.0
    return trace_forms(moment_form(d, ak.order), ak)


def moment_mc_check(rho: GaussianState, ak: SymmetricForm, n_samples: int,
                    seed: int) -> tuple[float, float, float]:
    """(analytic, mc, stderr) for the Gaussian integral of A_k under rho at an
    even order: the pairing-formula value against `mc_average` of
    A_k(psi, ..., psi) over `n_samples` draws from rho."""
    [(mc, stderr)] = mc_average(EvenPolynomial({ak.order: ak}), rho, n_samples, seed)
    return gaussian_integral_multilinear(ak, rho.covariance), mc, stderr
