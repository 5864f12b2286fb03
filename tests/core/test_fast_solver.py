"""Equivalence properties: the fast solver core vs the seed reference.

The PR's contract is that every fast path — matrix-free adjoint
correlation, operator bases, incremental QR refits, argpartition top-k —
is a pure performance change: same supports, same coefficients (to
1e-8), same reconstructions as the seed implementation kept verbatim in
:mod:`tests.oracles.solvers`.  Hypothesis drives randomised problem
instances through both and compares.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import dct_basis
from repro.core.chs import (
    chs,
    linear_interpolate,
    nearest_interpolate,
    zero_fill_interpolate,
)
from repro.core.incremental import IncrementalQR, top_k_indices
from repro.core.omp import omp
from repro.core.operators import DCT2Operator, DCTOperator
from repro.core.reconstruction import reconstruct
from tests.oracles.solvers import chs_reference, omp_reference
from tests.oracles.substitution import use_reference_solvers


def _problem(n, m, k, seed, noise=0.0):
    """A compressible random instance: K-sparse DCT field sampled at M."""
    rng = np.random.default_rng(seed)
    phi = dct_basis(n)
    alpha = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    alpha[support] = rng.standard_normal(k) * 3.0
    x = phi @ alpha
    locations = np.sort(rng.choice(n, size=m, replace=False))
    x_s = x[locations] + noise * rng.standard_normal(m)
    return phi, x, x_s, locations


class TestFastCHSEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference_default_interpolator(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.01)
        fast = chs(phi, x_s, locations, max_sparsity=k + 2)
        ref = chs_reference(phi, x_s, locations, max_sparsity=k + 2)
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
        assert np.allclose(fast.reconstruction, ref.reconstruction, atol=1e-8)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_reference_with_covariance(self, seed):
        rng = np.random.default_rng(seed)
        n, m, k = 48, 20, 5
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.05)
        covariance = np.diag(rng.uniform(0.01, 0.3, size=m) ** 2)
        fast = chs(
            phi, x_s, locations, max_sparsity=k + 1, covariance=covariance
        )
        ref = chs_reference(
            phi, x_s, locations, max_sparsity=k + 1, covariance=covariance
        )
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    @pytest.mark.parametrize(
        "interpolator", [linear_interpolate, nearest_interpolate]
    )
    def test_fast_matches_reference_non_adjoint_interpolators(
        self, interpolator
    ):
        # Non-adjoint interpolators keep the dense analysis path; the
        # remaining fast machinery (top-k, incremental refit) must still
        # reproduce the reference exactly.
        for seed in range(8):
            phi, _, x_s, locations = _problem(64, 24, 5, seed, noise=0.02)
            fast = chs(
                phi, x_s, locations, max_sparsity=6,
                interpolator=interpolator,
            )
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=6,
                interpolator=interpolator,
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_operator_basis_matches_dense_basis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        phi, _, x_s, locations = _problem(n, m, 4, seed, noise=0.01)
        dense = chs(phi, x_s, locations, max_sparsity=6)
        operator = chs(DCTOperator(n), x_s, locations, max_sparsity=6)
        assert np.array_equal(dense.support, operator.support)
        assert np.allclose(
            dense.reconstruction, operator.reconstruction, atol=1e-8
        )

    def test_batched_selection_matches_reference(self):
        for seed in range(6):
            phi, _, x_s, locations = _problem(80, 32, 8, seed, noise=0.02)
            fast = chs(phi, x_s, locations, max_sparsity=9, batch_size=3)
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=9, batch_size=3
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)


class TestFastOMPEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.02)
        phi_rows = phi[locations, :]
        fast = omp(phi_rows, x_s, sparsity=k)
        ref = omp_reference(phi_rows, x_s, k)
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    def test_fast_matches_reference_with_covariance(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            phi, _, x_s, locations = _problem(48, 20, 5, seed, noise=0.05)
            covariance = np.diag(rng.uniform(0.01, 0.3, size=20) ** 2)
            fast = omp(
                phi[locations, :], x_s, sparsity=5, covariance=covariance
            )
            ref = omp_reference(
                phi[locations, :], x_s, 5, covariance=covariance
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)


class TestTopKIndices:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        # Quantised scores force ties to exercise the tie-break path.
        scores = np.round(rng.standard_normal(n), 1)
        if n > 4:
            scores[rng.choice(n, size=n // 4, replace=False)] = -np.inf
        k = int(rng.integers(1, n + 1))
        order = np.lexsort((np.arange(n), -scores))
        expected = [int(i) for i in order if np.isfinite(scores[i])][:k]
        assert top_k_indices(scores, k).tolist() == expected

    def test_empty_when_all_masked(self):
        assert top_k_indices(np.full(5, -np.inf), 3).size == 0


class TestIncrementalQR:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_lstsq_column_by_column(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 40))
        k = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        inc = IncrementalQR(m, capacity=k)
        for j in range(k):
            inc.add_column(a[:, j])
            direct, *_ = np.linalg.lstsq(a[:, : j + 1], y, rcond=None)
            assert np.allclose(inc.solve(y), direct, atol=1e-8)

    def test_degenerate_column_falls_back(self):
        rng = np.random.default_rng(0)
        m = 10
        a = rng.standard_normal((m, 2))
        inc = IncrementalQR(m, capacity=3)
        inc.add_column(a[:, 0])
        inc.add_column(a[:, 1])
        inc.add_column(a[:, 0] + a[:, 1])  # exactly dependent
        assert inc.degenerate
        y = rng.standard_normal(m)
        stacked = np.column_stack([a, a[:, 0] + a[:, 1]])
        direct, *_ = np.linalg.lstsq(stacked, y, rcond=None)
        assert np.allclose(stacked @ inc.solve(y), stacked @ direct, atol=1e-8)


class TestNearestInterpolate:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_distance_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(1, n + 1))
        locations = np.sort(rng.choice(n, size=m, replace=False))
        values = rng.standard_normal(m)
        fast = nearest_interpolate(values, locations, n)
        # Seed implementation: full |grid - locations| distance matrix,
        # argmin with ties going to the first (lowest-location) column.
        distance = np.abs(
            np.arange(n)[:, None] - locations[None, :]
        )
        expected = values[np.argmin(distance, axis=1)]
        assert np.array_equal(fast, expected)


class TestCenterHoist:
    def test_centered_equals_manual_baseline_split(self):
        # reconstruct(center=True) must equal: subtract mean, solve
        # uncentered, add mean back — the identity the hoist relies on.
        for seed in range(6):
            phi, _, x_s, locations = _problem(60, 24, 5, seed, noise=0.02)
            x_s = x_s + 21.5  # physical baseline
            centered = reconstruct(
                x_s, locations, phi, solver="chs", sparsity=6, center=True
            )
            baseline = float(x_s.mean())
            manual = reconstruct(
                x_s - baseline, locations, phi, solver="chs", sparsity=6
            )
            assert np.allclose(
                centered.x_hat, manual.x_hat + baseline, atol=1e-10
            )
            assert np.array_equal(centered.support, manual.support)

    def test_reconstruct_engines_agree(self, monkeypatch):
        phi, _, x_s, locations = _problem(48, 20, 4, 11, noise=0.02)
        fast = {
            solver: reconstruct(
                x_s, locations, phi, solver=solver, sparsity=5, center=True
            )
            for solver in ("chs", "omp")
        }
        use_reference_solvers(monkeypatch)
        for solver, expected in fast.items():
            ref = reconstruct(
                x_s, locations, phi, solver=solver, sparsity=5, center=True
            )
            assert np.allclose(expected.x_hat, ref.x_hat, atol=1e-8)

    def test_operator_reconstruct_2d(self):
        rng = np.random.default_rng(5)
        w, h = 8, 6
        op = DCT2Operator(w, h)
        phi = op.to_dense()
        alpha = np.zeros(w * h)
        alpha[[0, 3, 10]] = [40.0, 2.0, -1.5]
        x = phi @ alpha
        locations = np.sort(rng.choice(w * h, size=24, replace=False))
        dense = reconstruct(
            x[locations], locations, phi, solver="chs", sparsity=6,
            center=True,
        )
        operator = reconstruct(
            x[locations], locations, op, solver="chs", sparsity=6,
            center=True,
        )
        assert np.allclose(dense.x_hat, operator.x_hat, atol=1e-8)
