"""Orthogonal Matching Pursuit (OMP) for sparse recovery.

Implements the solver for the paper's sparse-regression formulation
(eq. 13):

    minimize ||x - Phi alpha||_2^2   subject to   ||alpha||_0 <= K

which "can be effectively solved using the orthogonal matching pursuit
(OMP) algorithm [27]" (Tropp & Gilbert 2007).  OMP greedily selects the
dictionary column most correlated with the current residual, then refits
all selected coefficients by least squares — the same skeleton the CHS
algorithm of Fig. 6 builds on.

The default ``engine="fast"`` shares CHS's hot-path machinery: a
persistent boolean mask suppresses re-selection, the per-iteration
least-squares refit is a rank-1 QR update
(:class:`repro.core.incremental.IncrementalQR`) instead of a
from-scratch ``lstsq``, and a GLS covariance is whitened once up front
(a per-row variance vector is one row scaling, a full matrix one
Cholesky), so every refit is least squares on whitened columns.
``engine="reference"`` runs the seed implementation
(:func:`repro.core.reference.omp_reference`), the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import contracts
from .incremental import IncrementalQR
from .least_squares import ols_solve, whiten

__all__ = ["OMPResult", "omp"]

#: Problem sizes (``M * N``) at or below which the fast engine dispatches
#: to the lean dense loop.  For small dictionaries the rank-1 QR
#: bookkeeping and up-front whitening cost more than they save — the
#: PERF bench measured the incremental path at 0.46x reference at
#: N=256 and 0.89x at N=1024; a from-scratch refit with no per-iteration
#: Python overhead beats reference at those sizes.  The pinned bench
#: sizes N=256 (M=32) and N=1024 (M=128) fall below this threshold,
#: N=4096 (M=512) stays on the incremental path.
DENSE_CROSSOVER = 1 << 18


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
    engine: str = "fast",
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
    engine:
        ``"fast"`` (default) uses the incremental QR refit;
        ``"reference"`` runs the seed's from-scratch-refit loop.

    Returns
    -------
    :class:`OMPResult` with the N-length coefficient vector.
    """
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "reference":
        from .reference import omp_reference

        return omp_reference(
            phi_tilde, x_s, sparsity, tol=tol, covariance=covariance
        )

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
    col_norms = np.linalg.norm(phi_tilde, axis=0)
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)

    # Heterogeneous sensors: whiten once so every eq.-12 GLS refit is
    # OLS on whitened columns.  Selection still correlates the raw
    # dictionary with the raw residual.
    if covariance is None:
        dict_fit, x_fit = phi_tilde, x_s
    else:
        dict_fit, x_fit = whiten(phi_tilde, x_s, covariance)

    if m * n <= DENSE_CROSSOVER:
        return _omp_dense(
            phi_tilde, x_s, dict_fit, x_fit, sparsity, safe_norms, tol=tol
        )

    refit = IncrementalQR(m, capacity=sparsity)
    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    support: list[int] = []
    in_support = np.zeros(n, dtype=bool)
    alpha_sub = np.zeros(0)
    history: list[float] = []

    for _ in range(sparsity):
        correlations = np.abs(phi_tilde.T @ residual) / safe_norms
        correlations[in_support] = -np.inf  # never reselect
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        support.append(best)
        in_support[best] = True
        refit.add_column(dict_fit[:, best])
        alpha_sub = refit.solve(x_fit)
        if contracts.enabled():
            contracts.check_vector(
                "alpha_sub", alpha_sub, len(support), context="omp refit"
            )
            contracts.check_finite("alpha_sub", alpha_sub, context="omp refit")
        residual = x_s - phi_tilde[:, support] @ alpha_sub
        history.append(float(np.linalg.norm(residual)))
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


def _omp_dense(
    phi_tilde: np.ndarray,
    x_s: np.ndarray,
    dict_fit: np.ndarray,
    x_fit: np.ndarray,
    sparsity: int,
    safe_norms: np.ndarray,
    *,
    tol: float,
) -> OMPResult:
    """Lean small-problem loop: from-scratch refits, no QR bookkeeping.

    Runs the reference algorithm (so, unweighted or with a variance
    vector, it agrees with :func:`repro.core.reference.omp_reference`
    exactly, not just to the 1e-8 oracle tolerance) with three
    constant-factor trims: the selected columns grow in preallocated
    buffers instead of being re-gathered each iteration, re-selection
    is suppressed with a boolean mask, and the refit reads columns of
    ``dict_fit``, whitened once by the caller, instead of whitening the
    support on every iteration.
    """
    m, n = phi_tilde.shape
    sub = np.empty((m, sparsity))
    sub_fit = sub if dict_fit is phi_tilde else np.empty((m, sparsity))
    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    support: list[int] = []
    in_support = np.zeros(n, dtype=bool)
    alpha_sub = np.zeros(0)
    history: list[float] = []

    for _ in range(sparsity):
        correlations = np.abs(phi_tilde.T @ residual) / safe_norms
        correlations[in_support] = -np.inf  # never reselect
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        support.append(best)
        in_support[best] = True
        k = len(support)
        sub[:, k - 1] = phi_tilde[:, best]
        if sub_fit is not sub:
            sub_fit[:, k - 1] = dict_fit[:, best]
        picked = sub[:, :k]
        alpha_sub = ols_solve(sub_fit[:, :k], x_fit)
        if contracts.enabled():
            contracts.check_vector(
                "alpha_sub", alpha_sub, len(support), context="omp refit"
            )
            contracts.check_finite("alpha_sub", alpha_sub, context="omp refit")
        residual = x_s - picked @ alpha_sub
        history.append(float(np.linalg.norm(residual)))
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
