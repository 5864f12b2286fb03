"""What one pass of a workload measures, and the end-to-end metrics.

Every workload fills the same :class:`Pass`, and :func:`end_to_end`
turns it into the nine end-to-end metrics by one set of formulas:

- a *round time* runs from a round's start until a reader can read its
  estimate.  On the sim workloads the caller is the reader, so it is
  the wall time of the round call; on ``gateway-live`` it runs from the
  round's ``started_at`` until the load generator's reader first sees
  that round index, on the gateway's clock.
- a *query* is one request for the latest estimate.  On the sim
  workloads that request is the round call itself, which returns the
  estimate, so ``query_s`` holds the same times as ``round_s``; on
  ``gateway-live`` it is one ``GET /zones/latest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Pass:
    """Everything one pass (traced or not) of a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    #: Node reports fused in the rounds of ``round_s``.
    reports: int = 0
    rmse: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """A workload run: its passes (untraced first) and what it checked."""

    passes: list[Pass]
    #: Highest acceptable median rmse of a pass.
    rmse_ceiling: float
    #: Checks across passes, beyond each pass's own problems.
    problems: list[str] = field(default_factory=list)
    per_layer: dict[str, float] | None = None
    record: dict = field(default_factory=dict)


def end_to_end(p: Pass) -> dict[str, float]:
    return {
        "setup_s": float(np.median(p.setup_s)),
        "round_p50_s": float(np.median(p.round_s)),
        "reports_per_s": p.reports / sum(p.round_s),
        "rmse": float(np.median(p.rmse)),
        "estimate_p50_ms": 1e3 * float(np.percentile(p.round_s, 50)),
        "estimate_p90_ms": 1e3 * float(np.percentile(p.round_s, 90)),
        "query_p50_ms": 1e3 * float(np.percentile(p.query_s, 50)),
        "query_p99_ms": 1e3 * float(np.percentile(p.query_s, 99)),
        "queries_per_s": len(p.query_s) / sum(p.query_s),
    }
