"""The two forms of a diagonal GLS covariance V are interchangeable.

The hot path carries V as its per-row variance vector; the public API
still accepts the dense ``np.diag(variances)`` matrix.  Every solver
that takes a covariance must give the same support and the same
coefficients (to 1e-10) for either form — the vector is a row scaling,
the matrix a Cholesky factor of the same diagonal.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.core.basis import dct_basis
from repro.core.chs import chs
from repro.core.least_squares import gls_solve
from repro.core.omp import omp
from repro.core.reconstruction import reconstruct
from repro.core.reference import omp_reference
from repro.core.robust import robust_reconstruct

TOL = 1e-10
# The package re-exports the ``omp`` function under the module's name.
omp_module = importlib.import_module("repro.core.omp")


def _problem(seed, n=None, m=None, k=None, outliers=0):
    """A sparse DCT field sampled at m rows with heterogeneous noise."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(32, 96))
    m = m or int(rng.integers(max(12, n // 4), max(14, n // 2)))
    k = k or int(rng.integers(2, max(3, m // 4)))
    phi = dct_basis(n)
    alpha = np.zeros(n)
    alpha[rng.choice(min(n, 16), size=min(k, 16), replace=False)] = (
        rng.uniform(1.0, 3.0, min(k, 16)) * rng.choice([-1, 1], min(k, 16))
    )
    locations = np.sort(rng.choice(n, size=m, replace=False))
    stds = rng.uniform(0.02, 0.4, size=m)
    values = phi[locations] @ alpha + stds * rng.standard_normal(m)
    if outliers:
        bad = rng.choice(m, size=outliers, replace=False)
        values[bad] += rng.choice([-1, 1], outliers) * 25.0
        stds[bad] = 0.01  # the understated-std attack
    return phi, locations, values, stds**2, k


def _assert_same(a_support, a_coef, b_support, b_coef):
    assert np.array_equal(a_support, b_support)
    assert np.allclose(a_coef, b_coef, rtol=0.0, atol=TOL)


SEEDS = st.integers(min_value=0, max_value=2**16)


class TestGlsSolve:
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_vector_equals_matrix(self, seed):
        phi, loc, values, variances, k = _problem(seed)
        phi_k = phi[loc][:, :k]
        a = gls_solve(phi_k, values, variances)
        b = gls_solve(phi_k, values, np.diag(variances))
        assert np.allclose(a, b, rtol=0.0, atol=TOL)


class TestOmp:
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_dense_loop_vector_equals_matrix(self, seed):
        phi, loc, values, variances, k = _problem(seed)
        rows = phi[loc]
        a = omp(rows, values, k, covariance=variances)
        b = omp(rows, values, k, covariance=np.diag(variances))
        _assert_same(a.support, a.coefficients, b.support, b.coefficients)

    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_incremental_loop_vector_equals_matrix(self, seed):
        phi, loc, values, variances, k = _problem(seed)
        rows = phi[loc]
        # Crossover 0 routes every size through the rank-1 QR loop.
        with mock.patch.object(omp_module, "DENSE_CROSSOVER", 0):
            a = omp(rows, values, k, covariance=variances)
            b = omp(rows, values, k, covariance=np.diag(variances))
        _assert_same(a.support, a.coefficients, b.support, b.coefficients)

    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_dense_loop_with_vector_is_the_reference(self, seed):
        # Whitening the whole dictionary once scales exactly the same
        # elements the reference whitens per iteration: bit-identical.
        phi, loc, values, variances, k = _problem(seed)
        rows = phi[loc]
        a = omp(rows, values, k, covariance=variances)
        b = omp_reference(rows, values, k, covariance=variances)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.coefficients, b.coefficients)


class TestChs:
    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_vector_equals_matrix(self, seed):
        phi, loc, values, variances, k = _problem(seed)
        a = chs(phi, values, loc, max_sparsity=k + 1, covariance=variances)
        b = chs(
            phi, values, loc, max_sparsity=k + 1,
            covariance=np.diag(variances),
        )
        _assert_same(a.support, a.coefficients, b.support, b.coefficients)
        assert np.allclose(
            a.reconstruction, b.reconstruction, rtol=0.0, atol=TOL
        )


def _omp_fit(phi, sparsity):
    def fit(values, locations, covariance):
        result = reconstruct(
            values, locations, phi, solver="omp",
            sparsity=min(sparsity, values.size), covariance=covariance,
        )
        return result, result.x_hat

    return fit


class TestRobust:
    @pytest.mark.parametrize("mode", ["trim", "huber"])
    @given(seed=SEEDS, outliers=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_vector_equals_matrix(self, mode, seed, outliers):
        phi, loc, values, variances, k = _problem(
            seed, n=64, m=32, k=4, outliers=outliers
        )
        fit = _omp_fit(phi, 6)
        a = robust_reconstruct(
            fit, values, loc, covariance=variances, mode=mode
        )
        b = robust_reconstruct(
            fit, values, loc, covariance=np.diag(variances), mode=mode
        )
        assert np.array_equal(a.kept, b.kept)
        assert np.array_equal(a.rejected_rows, b.rejected_rows)
        assert a.rounds == b.rounds
        assert np.allclose(a.weights, b.weights, rtol=0.0, atol=TOL)
        _assert_same(
            a.result.support, a.result.coefficients,
            b.result.support, b.result.coefficients,
        )
        assert np.allclose(a.x_hat, b.x_hat, rtol=0.0, atol=TOL)

    def test_trim_rejects_understated_liars_with_vector(self):
        phi, loc, values, variances, _ = _problem(
            5, n=64, m=32, k=4, outliers=3
        )
        robust = robust_reconstruct(
            _omp_fit(phi, 6), values, loc, covariance=variances, mode="trim"
        )
        liars = np.flatnonzero(variances == 0.01**2)
        assert set(liars) <= set(robust.rejected_rows.tolist())


class TestReconstructContract:
    @pytest.fixture
    def sanitize(self):
        was = contracts.enabled()
        contracts.enable(True)
        yield
        contracts.enable(was)

    @pytest.mark.parametrize("solver", ["omp", "chs", "gls"])
    def test_variance_vector_accepted(self, sanitize, solver):
        phi, loc, values, variances, k = _problem(3, n=48, m=20, k=3)
        a = reconstruct(
            values, loc, phi, solver=solver, sparsity=k, covariance=variances
        )
        b = reconstruct(
            values, loc, phi, solver=solver, sparsity=k,
            covariance=np.diag(variances),
        )
        assert np.isfinite(a.x_hat).all()
        assert np.allclose(a.x_hat, b.x_hat, rtol=0.0, atol=TOL)

    def test_variance_vector_length_checked(self, sanitize):
        phi, loc, values, variances, k = _problem(3, n=48, m=20, k=3)
        with pytest.raises(contracts.ContractViolation, match="covariance"):
            reconstruct(
                values, loc, phi, solver="omp", sparsity=k,
                covariance=np.append(variances, 1.0),
            )
