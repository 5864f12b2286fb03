"""PERF — the fast solver core vs the seed reference implementation.

The reference arm is the seed's dense CHS/OMP, kept outside the package
as the test suite's oracle (``tests/oracles/solvers.py``).  Three timed
comparisons, each fast-vs-reference on identical inputs:

- **PERF-CHS**: the Fig. 6 CHS solver at N in {256, 1024, 4096} with the
  default zero-fill interpolator.  The fast engine replaces the O(N^2)
  dense analysis with the O(M*N) sampled-row adjoint, the quadratic
  membership scan with a boolean mask, and the from-scratch per-step
  refit with a rank-1 QR update; the matrix-free DCT operator removes
  the N x N basis build entirely.
- **PERF-OMP**: OMP at the same sizes (mask + incremental QR).
- **PERF-ROUND**: one full ``sense_field`` round over a 2048-node
  deployment (4 zones of 64x64 cells, 512 phones each), fast solvers +
  operator bases + shared registry vs the reference solvers rebuilding
  per-broker dense bases — the end-to-end number a deployment feels.
  The reference arm is the same deployment with the reference CHS and
  a private ``dct2_basis`` per broker patched in
  (``tests/oracles/substitution.py``).

Results go to ``benchmarks/results/PERF-*.txt`` and are merged into
``BENCH_PERF.json`` at the repo root.  Smoke mode
(``REPRO_PERF_SMOKE=1``) shrinks every size and drops the timing
assertions so CI can execute the code paths on shared runners where
wall-clock guarantees are meaningless.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.basis import dct_basis
from repro.core.chs import chs
from repro.core.omp import omp
from repro.core.operators import DCTOperator
from repro.fields.generators import urban_temperature_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.sensors.base import Environment
from tests.oracles.solvers import chs_reference, omp_reference
from tests.oracles.substitution import (
    use_private_dense_bases,
    use_reference_solvers,
)

from _util import record_series

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") not in ("", "0")
# Smoke runs land next to the other bench artefacts so they never
# clobber the committed full-mode numbers at the repo root.
BENCH_JSON = (
    Path(__file__).resolve().parent / "results" / "BENCH_PERF.smoke.json"
    if SMOKE
    else Path(__file__).resolve().parent.parent / "BENCH_PERF.json"
)

CHS_SIZES = (64, 128, 256) if SMOKE else (256, 1024, 4096)
ROUND_ZONES = 2  # zones_x = zones_y
ROUND_NODES_PER_NC = 16 if SMOKE else 512  # 4 zones -> 64 / 2048 nodes
ROUND_FIELD = 32 if SMOKE else 128  # square global field edge


def _merge_bench_json(section: str, payload: dict) -> None:
    """Read-modify-write one section of the repo-root BENCH_PERF.json."""
    document = {"schema": "bench-perf/1", "smoke": SMOKE, "sections": {}}
    if BENCH_JSON.exists():
        try:
            document = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            pass
    document["smoke"] = SMOKE
    document["cpu_count"] = os.cpu_count()
    document.setdefault("sections", {})[section] = payload
    BENCH_JSON.write_text(json.dumps(document, indent=2) + "\n")


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _solver_problem(n: int, seed: int):
    """A compressible instance at size N: M = N/8 samples, K = N/64."""
    rng = np.random.default_rng(seed)
    m = max(n // 8, 8)
    k = max(n // 64, 4)
    phi = dct_basis(n)
    alpha = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    alpha[support] = rng.standard_normal(k) * 3.0
    x = phi @ alpha
    locations = np.sort(rng.choice(n, size=m, replace=False))
    x_s = x[locations] + 0.01 * rng.standard_normal(m)
    return phi, x_s, locations, k


def test_perf_chs_solver(benchmark):
    rows = []
    runs = []
    for n in CHS_SIZES:
        phi, x_s, locations, k = _solver_problem(n, seed=n)
        operator = DCTOperator(n)
        sparsity = k + 2
        repeats = 3 if n <= 1024 else 2

        ref = _best_of(
            lambda: chs_reference(
                phi, x_s, locations, max_sparsity=sparsity
            ),
            repeats,
        )
        fast = _best_of(
            lambda: chs(operator, x_s, locations, max_sparsity=sparsity),
            repeats,
        )
        # The two arms must agree before their timings mean anything.
        a = chs_reference(phi, x_s, locations, max_sparsity=sparsity)
        b = chs(operator, x_s, locations, max_sparsity=sparsity)
        assert np.allclose(a.reconstruction, b.reconstruction, atol=1e-8)

        speedup = ref / fast
        rows.append([n, locations.size, sparsity, ref * 1e3, fast * 1e3,
                     round(speedup, 2)])
        runs.append(
            {
                "n": n, "m": int(locations.size), "sparsity": int(sparsity),
                "reference_s": ref, "fast_s": fast, "speedup": speedup,
            }
        )

    if not SMOKE:
        # Acceptance: >= 5x at N = 4096 with the default interpolator.
        assert runs[-1]["n"] == 4096
        assert runs[-1]["speedup"] >= 5.0

    record_series(
        "PERF-CHS",
        "CHS solve: reference engine vs fast engine (ms, best-of runs)",
        ["n", "m", "k", "reference_ms", "fast_ms", "speedup"],
        rows,
        notes="fast = sampled-row adjoint + incremental QR + DCT operator"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("chs", {"runs": runs})
    n = CHS_SIZES[-1]
    phi, x_s, locations, k = _solver_problem(n, seed=n)
    operator = DCTOperator(n)
    benchmark.pedantic(
        lambda: chs(operator, x_s, locations, max_sparsity=k + 2),
        rounds=3, iterations=1,
    )


def test_perf_omp_solver(benchmark):
    rows = []
    runs = []
    for n in CHS_SIZES:
        phi, x_s, locations, k = _solver_problem(n, seed=n + 1)
        phi_rows = phi[locations, :]
        repeats = 3

        ref = _best_of(
            lambda: omp_reference(phi_rows, x_s, sparsity=k),
            repeats,
        )
        fast = _best_of(lambda: omp(phi_rows, x_s, sparsity=k), repeats)
        a = omp_reference(phi_rows, x_s, sparsity=k)
        b = omp(phi_rows, x_s, sparsity=k)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-8)

        speedup = ref / fast
        rows.append([n, locations.size, k, ref * 1e3, fast * 1e3,
                     round(speedup, 2)])
        runs.append(
            {
                "n": n, "m": int(locations.size), "sparsity": int(k),
                "reference_s": ref, "fast_s": fast, "speedup": speedup,
            }
        )

    record_series(
        "PERF-OMP",
        "OMP solve: reference engine vs fast engine (ms, best-of runs)",
        ["n", "m", "k", "reference_ms", "fast_ms", "speedup"],
        rows,
        notes="fast = support mask + rank-1 QR refit"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("omp", {"runs": runs})
    n = CHS_SIZES[-1]
    phi, x_s, locations, k = _solver_problem(n, seed=n + 1)
    phi_rows = phi[locations, :]
    benchmark.pedantic(
        lambda: omp(phi_rows, x_s, sparsity=k), rounds=3, iterations=1
    )


def _deploy() -> SenseDroid:
    truth = urban_temperature_field(ROUND_FIELD, ROUND_FIELD, rng=7)
    env = Environment(fields={"temperature": truth})
    return SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=ROUND_ZONES,
            zones_y=ROUND_ZONES,
            nodes_per_nanocloud=ROUND_NODES_PER_NC,
        ),
        broker_config=BrokerConfig(),
        rng=123,
    )


def test_perf_full_round(benchmark, monkeypatch):
    n_nodes = ROUND_ZONES * ROUND_ZONES * ROUND_NODES_PER_NC
    # Build both deployments first (node placement is identical), then
    # time one cold sense_field round each: the reference arm pays its
    # per-broker dense basis builds and dense solves; the fast arm its
    # shared operators and sampled-row solves — exactly the deployment
    # cost difference.
    reference_system = _deploy()
    fast_system = _deploy()

    with monkeypatch.context() as patch:
        use_reference_solvers(patch)
        use_private_dense_bases(
            patch,
            [
                nc.broker
                for lc in reference_system.hierarchy.localclouds.values()
                for nc in lc.nanoclouds
            ],
        )
        start = time.perf_counter()
        reference_estimate = reference_system.sense_field()
        reference_s = time.perf_counter() - start

    start = time.perf_counter()
    fast_estimate = fast_system.sense_field()
    fast_s = time.perf_counter() - start

    # Same deployment seed, same draws: the arms see identical inputs
    # and must produce (numerically) the same global field.
    assert np.allclose(
        reference_estimate.field.grid, fast_estimate.field.grid, atol=1e-8
    )
    error = fast_system.estimate_error(fast_estimate)
    speedup = reference_s / fast_s

    if not SMOKE:
        assert n_nodes == 2048
        # Acceptance: >= 2x for the full round, radio simulation included.
        assert speedup >= 2.0

    record_series(
        "PERF-ROUND",
        f"full sense_field round, {n_nodes} nodes "
        f"({ROUND_FIELD}x{ROUND_FIELD} field, "
        f"{ROUND_ZONES * ROUND_ZONES} zones)",
        ["arm", "round_s", "rel_err", "measurements"],
        [
            ["reference", reference_s,
             fast_system.estimate_error(reference_estimate),
             reference_estimate.total_measurements],
            ["fast", fast_s, error, fast_estimate.total_measurements],
        ],
        notes=f"speedup {speedup:.2f}x"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json(
        "round",
        {
            "nodes": n_nodes,
            "field": [ROUND_FIELD, ROUND_FIELD],
            "zones": ROUND_ZONES * ROUND_ZONES,
            "reference_s": reference_s,
            "fast_s": fast_s,
            "speedup": speedup,
            "relative_error": error,
        },
    )
    benchmark.pedantic(fast_system.sense_field, rounds=1, iterations=1)
