"""Gaussian moment machinery: moment evaluation, Gaussian integrals of
multilinear forms and their Monte-Carlo checks.  A check draws its own
samples from the state and keeps only one value per draw.

The forms themselves, their moment forms and their contraction (the
generalized trace) live in `functionals`, beside `SymmetricForm`.
"""

from __future__ import annotations

from .functionals import SymmetricForm, moment_form, trace_forms
from .gaussian import GaussianState, draw_chunked, mean_stderr


def moment_form_eval(d, args) -> float:
    """Gaussian moment E[(z_1, psi) ... (z_2k, psi)] for covariance D."""
    return moment_form(d, len(args))(*args)


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
    """(analytic, mc, stderr) for the Gaussian integral of A_k under rho: the
    pairing-formula value against the mean of A_k(psi, ..., psi) over
    `n_samples` draws from rho, evaluated chunk by chunk as they are drawn."""
    values = draw_chunked(seed, n_samples, lambda rng, m: ak.eval_diag_batch(rho.fill(rng, m)))
    mc, stderr = mean_stderr(values.samples)
    return gaussian_integral_multilinear(ak, rho.covariance), mc, stderr
