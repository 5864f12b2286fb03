"""Ordinary and generalized least-squares coefficient estimators.

Implements the closed-form solutions of the paper:

- eq. (11): OLS for homogeneous sensors,
      alpha_K = (Phi_K^* Phi_K)^{-1} Phi_K^* x_S
- eq. (12): GLS for heterogeneous/noisy sensors with noise covariance V,
      alpha_K = (Phi_K^* V^{-1} Phi_K)^{-1} Phi_K^* V^{-1} x_S

Both require the overdetermined, well-conditioned case M >= K with
rank(Phi_K) = K.  We solve via `lstsq`/Cholesky rather than forming the
normal-equation inverse explicitly, for numerical robustness — the paper's
error term epsilon_c ("error due to numerical ill-conditioning") is
exactly what the naive formula amplifies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "ols_solve", "gls_solve", "whiten", "whitener", "condition_number",
]


def _as_matrix_vector(phi_k: np.ndarray, x_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    phi_k = np.asarray(phi_k, dtype=float)
    x_s = np.asarray(x_s, dtype=float).ravel()
    if phi_k.ndim != 2:
        raise ValueError("sensing matrix must be 2-D")
    if phi_k.shape[0] != x_s.size:
        raise ValueError(
            f"{phi_k.shape[0]} rows in sensing matrix but {x_s.size} measurements"
        )
    return phi_k, x_s


def ols_solve(phi_k: np.ndarray, x_s: np.ndarray) -> np.ndarray:
    """Ordinary least squares estimate of alpha_K (paper eq. 11).

    Parameters
    ----------
    phi_k:
        Sensing matrix ``Phi~_K`` of shape ``(M, K)`` — rows of the basis
        restricted to the selected coefficient columns.
    x_s:
        Measurement vector of length M.

    Returns
    -------
    Coefficient vector of length K minimising ``||x_s - phi_k @ alpha||_2``.
    """
    phi_k, x_s = _as_matrix_vector(phi_k, x_s)
    alpha, *_ = np.linalg.lstsq(phi_k, x_s, rcond=None)
    return alpha


def whitener(
    covariance: np.ndarray, m: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Validate a noise covariance V for an M-row system and return ``L^{-1}``.

    ``V = L L^T``; the returned map left-multiplies an ``(M,)`` vector or
    an ``(M, k)`` block by ``L^{-1}``, so OLS on whitened rows equals GLS.
    V may be a scalar variance, a length-M vector of per-sensor
    variances (whitening is a row scaling) or a full ``(M, M)`` matrix
    (Cholesky once here, one triangular solve per call).  The greedy
    solvers validate V once per fit and whiten only the columns they
    admit.
    """
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim == 0:
        if covariance <= 0:
            raise ValueError("variance must be positive")
        scale = 1.0 / np.sqrt(float(covariance))
        return lambda a: a * scale
    if covariance.ndim == 1:
        if covariance.size != m:
            raise ValueError(
                f"variance vector length {covariance.size} != M={m}"
            )
        if np.any(covariance <= 0):
            raise ValueError("all sensor variances must be positive")
        rows = 1.0 / np.sqrt(covariance)
        block = rows[:, None]
        return lambda a: a * (rows if a.ndim == 1 else block)
    if covariance.shape != (m, m):
        raise ValueError(f"covariance must be ({m}, {m}), got {covariance.shape}")
    chol = np.linalg.cholesky(covariance)
    return lambda a: solve_triangular(chol, a, lower=True, check_finite=False)


def whiten(
    phi_k: np.ndarray, x_s: np.ndarray, covariance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whiten a heteroscedastic system so OLS on the result equals GLS.

    Factor ``V = L L^T`` (Cholesky) and left-multiply by ``L^{-1}``.
    Accepts a full covariance matrix, a 1-D vector of per-sensor variances,
    or a scalar variance (see :func:`whitener`).
    """
    phi_k, x_s = _as_matrix_vector(phi_k, x_s)
    white = whitener(covariance, x_s.size)
    return white(phi_k), white(x_s)


def gls_solve(
    phi_k: np.ndarray, x_s: np.ndarray, covariance: np.ndarray
) -> np.ndarray:
    """Generalized least squares estimate of alpha_K (paper eq. 12).

    ``covariance`` describes the sensor-noise covariance V arising from
    heterogeneous phone sensors (Section 4, "GLS Solution for heterogenous
    sensors").  Scalar, per-sensor-variance vector and full-matrix forms
    are accepted.
    """
    phi_w, x_w = whiten(phi_k, x_s, covariance)
    alpha, *_ = np.linalg.lstsq(phi_w, x_w, rcond=None)
    return alpha


def condition_number(phi_k: np.ndarray) -> float:
    """2-norm condition number of the sensing matrix.

    The paper's epsilon_c grows with this; the ABL-K bench sweeps K and
    shows conditioning degrade as K approaches M.
    """
    phi_k = np.asarray(phi_k, dtype=float)
    if phi_k.size == 0:
        raise ValueError("empty sensing matrix")
    return float(np.linalg.cond(phi_k))
