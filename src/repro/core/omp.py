"""Orthogonal Matching Pursuit (OMP) for sparse recovery.

Implements the solver for the paper's sparse-regression formulation
(eq. 13):

    minimize ||x - Phi alpha||_2^2   subject to   ||alpha||_0 <= K

which "can be effectively solved using the orthogonal matching pursuit
(OMP) algorithm [27]" (Tropp & Gilbert 2007).  OMP greedily selects the
dictionary column most correlated with the current residual, then refits
all selected coefficients by least squares — the same skeleton the CHS
algorithm of Fig. 6 builds on.

:func:`omp` is one loop for every problem size and shares CHS's
hot-path machinery: a persistent boolean mask suppresses
re-selection, and the per-iteration least-squares refit is a rank-1 QR
update (:class:`repro.core.incremental.IncrementalQR`) instead of a
from-scratch ``lstsq``.  A GLS covariance is validated once per fit and
only what the refit reads is whitened: ``x_s`` once, and each column
when it is admitted (a row scaling for a per-row variance vector, one
triangular solve against a Cholesky factor computed once for a full
matrix), so every refit is least squares on whitened columns and the
rest of the dictionary is never touched.  Selection correlates the raw
dictionary with the raw residual.  The seed's from-scratch-refit loop
is kept outside the package, as the test suite's equivalence oracle
(``tests/oracles/solvers.py``): same support, coefficients within 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from ..analysis import contracts
from .incremental import IncrementalQR
from .least_squares import whitener

__all__ = ["OMPResult", "omp"]

@dataclass
class OMPResult:
    """Outcome of one OMP run.

    Attributes
    ----------
    coefficients:
        Full-length (N) coefficient vector; zero outside the support.
    support:
        Indices of the selected dictionary columns, in selection order.
    residual_norm:
        Final ``||x_s - Phi_tilde alpha||_2``.
    iterations:
        Number of greedy selections performed.
    residual_history:
        Residual norm after every iteration (for convergence plots).
    """

    coefficients: np.ndarray
    support: np.ndarray
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def omp(
    phi_tilde: np.ndarray,
    x_s: np.ndarray,
    sparsity: int,
    *,
    tol: float = 1e-9,
    covariance: np.ndarray | None = None,
) -> OMPResult:
    """Recover a sparse coefficient vector from measurements ``x_s``.

    Parameters
    ----------
    phi_tilde:
        Measurement dictionary of shape ``(M, N)`` — for spatial-field
        sensing this is the row-subsampled basis ``Phi[L, :]`` (eq. 7);
        for projection gathering it is ``A @ Phi``.
    x_s:
        Measurement vector of length M.
    sparsity:
        Target sparsity K (maximum number of non-zero coefficients).
    tol:
        Stop early once the residual norm falls below ``tol * ||x_s||``.
    covariance:
        Optional sensor-noise covariance V — a length-M vector of
        per-row variances (diagonal V) or a full ``(M, M)`` matrix
        (correlated noise).  When given, the per-iteration refit uses
        GLS (eq. 12) instead of OLS (eq. 11), matching step 3(e)(ii) of
        Fig. 6.

    Returns
    -------
    :class:`OMPResult` with the N-length coefficient vector.
    """
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    x_s = np.asarray(x_s, dtype=float).ravel()
    if phi_tilde.ndim != 2:
        raise ValueError("dictionary must be 2-D")
    m, n = phi_tilde.shape
    if x_s.size != m:
        raise ValueError(f"measurement length {x_s.size} != dictionary rows {m}")
    if not 0 < sparsity <= min(m, n):
        raise ValueError(
            f"sparsity must be in 1..min(M, N)={min(m, n)}, got {sparsity}"
        )

    # Column norms for a scale-invariant correlation test; guard zeros.
    col_norms = np.sqrt(np.einsum("ij,ij->j", phi_tilde, phi_tilde))
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)

    # Heterogeneous sensors: every eq.-12 GLS refit is OLS on whitened
    # columns.  Validate V once, whiten x_s once and each column as it
    # is admitted — never the whole dictionary.
    white = None if covariance is None else whitener(covariance, m)
    x_fit = x_s if white is None else white(x_s)

    refit = IncrementalQR(m, capacity=sparsity)
    picked = np.empty((m, sparsity))  # raw admitted columns, in order
    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    support: list[int] = []
    in_support = np.zeros(n, dtype=bool)
    alpha_sub = np.zeros(0)
    history: list[float] = []

    for _ in range(sparsity):
        correlations = np.abs(phi_tilde.T @ residual) / safe_norms
        correlations[in_support] = -np.inf  # never reselect
        best = int(correlations.argmax())
        if not 0 < correlations[best] < np.inf:
            break
        support.append(best)
        in_support[best] = True
        k = len(support)
        column = phi_tilde[:, best]
        picked[:, k - 1] = column
        refit.add_column(column if white is None else white(column))
        alpha_sub = refit.solve(x_fit)
        if contracts.enabled():
            contracts.check_vector(
                "alpha_sub", alpha_sub, k, context="omp refit"
            )
            contracts.check_finite("alpha_sub", alpha_sub, context="omp refit")
        residual = x_s - picked[:, :k] @ alpha_sub
        history.append(sqrt(residual @ residual))
        if history[-1] <= target:
            break

    coefficients = np.zeros(n)
    if support:
        coefficients[support] = alpha_sub
    return OMPResult(
        coefficients=coefficients,
        support=np.asarray(support, dtype=int),
        residual_norm=float(np.linalg.norm(residual)),
        iterations=len(support),
        residual_history=history,
    )

