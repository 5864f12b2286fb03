"""Compressive Heterogeneous Sensing (CHS) — the algorithm of Fig. 6.

This is the paper's main algorithmic contribution: an iterative
reconstruction loop that, unlike plain OMP, (a) interpolates the
measurement residual from the M sensor locations back to all N grid
points before analysing it in the basis, so coefficient scoring sees a
full-resolution (if crude) field estimate, and (b) refits the selected
coefficients with GLS when sensors are heterogeneous.

Fig. 6, restated:

    Input : measured vector x_S at locations L, sparsity budget, basis Phi
    Output: index set J, sensing matrix Phi~_K, reconstruction x_hat

    1. J = {}, residual e_r = x_S, alpha_K = {}
    2. form basis Phi
    3. while stop criteria not met:
       (a) e_r_new = Y(e_r)        # interpolate R^M -> R^N
       (b) alpha_r = Phi^+ e_r_new # analyse interpolated residual
       (c) pick significant indices I from alpha_r
       (d) J = J U I
       (e) refit alpha_K on Phi[L, J] by OLS (eq. 11) or GLS (eq. 12)
       (f) e_r = x_S - Phi[L, J] alpha_K
    4. x_hat = Phi[:, J] alpha_K

"The algorithm is primarily implemented in the brokers but is also used
by the nodes for context processing" — accordingly
:class:`repro.middleware.broker.Broker` and the temporal context probes
both call :func:`chs`.

Hot-path engineering:

- For the default :func:`zero_fill_interpolate` — the adjoint of the
  selection operator — step 3(b) collapses algebraically:
  ``Phi.T @ Y(e_r) == Phi[L, :].T @ e_r``, so the O(N^2) dense analysis
  becomes an O(M*N) sampled-row correlation and the full basis is never
  touched inside the loop.  Non-adjoint interpolators (linear, nearest)
  keep the full analysis, via ``Phi.T`` for a dense basis or one fast
  transform for a :class:`repro.core.operators.BasisOperator`.
- Step 3(c) ranks candidates with an O(N) ``argpartition``
  (:func:`repro.core.incremental.top_k_indices`) and a boolean support
  mask, replacing the seed's full ``lexsort`` + per-candidate
  ``set(support)`` rebuild; the deterministic lower-index tie-break is
  preserved exactly.
- Step 3(e) updates the refit with a rank-1 QR update per admitted atom
  (:class:`repro.core.incremental.IncrementalQR`) instead of re-running
  ``lstsq`` from scratch; GLS validates V once and whitens ``x_S`` and
  each admitted atom's sampled column (never all N), so the same
  incremental machinery covers eq. 12.

The seed's dense loop is kept outside the package, as the test suite's
oracle (``tests/oracles/solvers.py``): the property suite holds this
implementation to within 1e-8 of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis import contracts
from .incremental import IncrementalQR, top_k_indices
from .least_squares import whitener
from .operators import BasisOperator

__all__ = [
    "CHSResult",
    "chs",
    "zero_fill_interpolate",
    "linear_interpolate",
    "nearest_interpolate",
]

Interpolator = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def zero_fill_interpolate(
    values: np.ndarray, locations: np.ndarray, n: int
) -> np.ndarray:
    """Default residual lift Y: place residuals at their locations, zero
    elsewhere (the adjoint of the selection operator).

    With an orthonormal basis this makes step 3(b)'s analysis equal the
    measurement-domain correlation ``Phi[L,:].T @ e_r`` — the classical
    matched-filter score — so CHS stays reliable even when the field has
    content the smoother interpolators alias away (e.g. the engine
    vibration tone in the Fig. 4 accelerometer window).  :func:`chs`
    exploits exactly this identity to avoid the dense product.
    """
    locations = np.asarray(locations, dtype=int)
    full = np.zeros(n)
    full[locations] = values
    return full


def linear_interpolate(
    values: np.ndarray, locations: np.ndarray, n: int
) -> np.ndarray:
    """Residual interpolator Y: linear in vectorised-index space.

    The vectorised field stacks grid columns (eq. 1), so index-space
    linear interpolation is a crude but cheap spatial prior; Fig. 6 only
    requires Y to map R^M -> R^N.  Best suited to smooth, low-frequency
    spatial fields; see :func:`zero_fill_interpolate` for the robust
    default.
    """
    locations = np.asarray(locations, dtype=float)
    return np.interp(np.arange(n, dtype=float), locations, values)


def nearest_interpolate(
    values: np.ndarray, locations: np.ndarray, n: int
) -> np.ndarray:
    """Nearest-neighbour interpolator, better for piecewise-constant fields.

    Runs in O(N log M) via ``searchsorted`` on the sorted locations
    rather than materialising the O(N*M) pairwise distance matrix.  Ties
    (a grid point exactly halfway between two samples) resolve to the
    lower location, matching the distance-matrix ``argmin`` convention
    for the sorted location sets the solvers use.
    """
    locations = np.asarray(locations, dtype=int).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if locations.size == 0:
        raise ValueError("need at least one sample location")
    order = np.argsort(locations, kind="stable")
    locs = locations[order]
    vals = values[order]
    grid = np.arange(n)
    right = np.searchsorted(locs, grid, side="left")
    left = np.clip(right - 1, 0, locs.size - 1)
    right_c = np.clip(right, 0, locs.size - 1)
    dist_left = np.where(right > 0, grid - locs[left], np.inf)
    dist_right = np.where(right < locs.size, locs[right_c] - grid, np.inf)
    pick_left = dist_left <= dist_right
    return np.where(pick_left, vals[left], vals[right_c])


@dataclass
class CHSResult:
    """Outcome of one CHS run (Fig. 6 outputs plus diagnostics)."""

    coefficients: np.ndarray
    support: np.ndarray
    reconstruction: np.ndarray
    sensing_matrix: np.ndarray
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def chs(
    phi: np.ndarray | BasisOperator,
    x_s: np.ndarray,
    locations: np.ndarray,
    *,
    max_sparsity: int | None = None,
    batch_size: int = 1,
    tol: float = 1e-6,
    max_iterations: int = 64,
    covariance: np.ndarray | None = None,
    interpolator: Interpolator = zero_fill_interpolate,
) -> CHSResult:
    """Run Compressive Heterogeneous Sensing (paper Fig. 6).

    Parameters
    ----------
    phi:
        Full ``(N, N)`` orthonormal synthesis basis, dense or as a
        matrix-free :class:`repro.core.operators.BasisOperator`.
    x_s:
        Measurements at the M sensor locations.
    locations:
        Sorted grid indices ``L`` of the reporting sensors (length M).
    max_sparsity:
        Cap on ``|J|``.  Defaults to ``M - 1`` so the per-iteration OLS
        refit stays overdetermined (paper's M >= K requirement).
    batch_size:
        Number of new indices I admitted per iteration.  Fig. 6's step
        3(c) picks a *subset*, so batching is supported, but the default
        is 1: batched greedy selection commits several coefficients on
        one residual's evidence and measurably degrades exactly-sparse
        fields (see the FIG6 interpolator/batch ablation bench).
    tol:
        Stop when the residual norm drops below ``tol * ||x_S||``.
    max_iterations:
        Hard stop for the while loop.
    covariance:
        Sensor noise covariance V; if given the refit in step 3e uses
        GLS (heterogeneous sensors), else OLS (homogeneous).
    interpolator:
        The Y function of step 3a.

    Returns
    -------
    :class:`CHSResult` with the N-point reconstruction ``x_hat``.
    """
    op: BasisOperator | None
    dense: np.ndarray | None
    x_s = np.asarray(x_s, dtype=float).ravel()
    locations = np.asarray(locations, dtype=int).ravel()
    if isinstance(phi, BasisOperator):
        op, dense = phi, None
        n = phi.n
    else:
        dense = np.asarray(phi, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("CHS needs the full square basis Phi")
        op = None
        n = dense.shape[0]
    m = locations.size
    if x_s.size != m:
        raise ValueError(f"{x_s.size} measurements but {m} locations")
    if m == 0:
        raise ValueError("need at least one measurement")
    if np.any(locations < 0) or np.any(locations >= n):
        raise IndexError("sensor location out of field range")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if max_sparsity is None:
        max_sparsity = max(1, m - 1)
    # The paper's overdetermined-refit requirement M >= K: clamp any
    # caller-supplied budget so the step-3e least squares never goes
    # underdetermined (K ~ M extrapolates wildly off the sample set).
    max_sparsity = min(max_sparsity, max(1, m - 1), n)

    if op is not None:
        phi_rows = op.rows(locations)
    else:
        assert dense is not None
        phi_rows = dense[locations, :]
    if contracts.enabled():
        contracts.check_finite("x_s", x_s, context="chs")
        contracts.check_shape("phi_rows", phi_rows, (m, n), context="chs")
    # Selection is normalised by each atom's energy *at the sampled
    # rows*: an atom barely present at the M locations can correlate
    # spuriously with the residual yet cannot be estimated from those
    # samples.  This is the standard matched-filter normalisation OMP
    # uses, applied to Fig. 6's step (c) scoring.
    column_norms = np.sqrt(np.einsum("ij,ij->j", phi_rows, phi_rows))
    column_norms = np.where(column_norms > 1e-12, column_norms, np.inf)
    # Heterogeneous sensors: each iteration's eq.-12 GLS refit is OLS on
    # whitened columns the QR update can grow.  Validate V once, whiten
    # x_S once and each atom's sampled column as it is admitted.
    white = None if covariance is None else whitener(covariance, m)
    x_fit = x_s if white is None else white(x_s)
    refit = IncrementalQR(m, capacity=max_sparsity)
    support: list[int] = []
    in_support = np.zeros(n, dtype=bool)
    alpha_sub = np.zeros(0)
    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    history: list[float] = []
    iterations = 0
    # The adjoint identity: with zero-fill interpolation, step 3(b)'s
    # Phi.T @ Y(e_r) equals the sampled-row correlation Phi[L,:].T @ e_r.
    adjoint_lift = interpolator is zero_fill_interpolate

    for iterations in range(1, max_iterations + 1):
        # (a)+(b) analyse the lifted residual in the basis.
        if adjoint_lift:
            alpha_r = phi_rows.T @ residual
        else:
            residual_full = interpolator(residual, locations, n)
            if op is not None:
                alpha_r = op.analyze(residual_full)
            else:
                assert dense is not None
                alpha_r = dense.T @ residual_full
        # (c) pick the largest-magnitude new coefficients (normalised by
        # sampled-row atom energy; ties break toward the lower index —
        # the low-frequency prior for physical fields).
        scores = np.abs(alpha_r) / column_norms
        scores[in_support] = -np.inf
        room = max_sparsity - len(support)
        picked = top_k_indices(scores, min(batch_size, room))
        if picked.size == 0:
            break
        # (d) grow the index set.
        support.extend(int(i) for i in picked)
        in_support[picked] = True
        # (e) refit all coefficients on the measured rows — one rank-1
        # QR update per admitted atom.
        for j in picked:
            column = phi_rows[:, j]
            refit.add_column(column if white is None else white(column))
        alpha_sub = refit.solve(x_fit)
        if contracts.enabled():
            # A non-finite refit here means the incremental QR went
            # numerically degenerate — catch it at the iteration that
            # introduced it, not in the assembled field estimate.
            contracts.check_vector(
                "alpha_sub", alpha_sub, len(support), context="chs refit"
            )
            contracts.check_finite("alpha_sub", alpha_sub, context="chs refit")
        # (f) update the measurement-domain residual.
        residual = x_s - phi_rows[:, support] @ alpha_sub
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= target or len(support) >= max_sparsity:
            break

    coefficients = np.zeros(n)
    if support:
        coefficients[support] = alpha_sub
    if not support:
        reconstruction = np.zeros(n)
    elif op is not None:
        reconstruction = op.synthesize(coefficients)
    else:
        assert dense is not None
        reconstruction = dense[:, support] @ alpha_sub
    return CHSResult(
        coefficients=coefficients,
        support=np.asarray(support, dtype=int),
        reconstruction=reconstruction,
        sensing_matrix=phi_rows[:, support] if support else np.zeros((m, 0)),
        residual_norm=float(np.linalg.norm(residual)),
        iterations=iterations,
        residual_history=history,
    )
