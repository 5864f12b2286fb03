"""What the greedy solvers' whole-dictionary ``whiten`` call used to guard.

``omp`` and ``chs`` validate the noise covariance V once per fit and
whiten only ``x_s`` and each admitted column.  These tests hold them to
everything the old up-front ``whiten(dictionary, x_s, V)`` call checked
(a non-positive variance, a wrong-length vector, a wrong-shape matrix),
to the near-dependent-column ``lstsq`` fallback of
:class:`repro.core.incremental.IncrementalQR`, and to the sanitizer's
per-iteration refit contract.
"""

import importlib

import numpy as np
import pytest

from repro.analysis import contracts
from repro.core.basis import dct_basis
from repro.core.chs import chs
from repro.core.incremental import IncrementalQR
from repro.core.omp import omp
from tests.oracles.solvers import omp_reference

# The package re-exports the ``omp`` function under the module's name.
omp_module = importlib.import_module("repro.core.omp")

BAD_COVARIANCES = {
    "non-positive variance": lambda m: np.r_[np.ones(m - 1), 0.0],
    "negative scalar": lambda m: np.asarray(-1.0),
    "wrong-length vector": lambda m: np.ones(m + 1),
    "wrong-shape matrix": lambda m: np.eye(m + 1),
}


def _sampled(seed, n=32, m=12):
    rng = np.random.default_rng(seed)
    phi = dct_basis(n)
    locations = np.sort(rng.choice(n, size=m, replace=False))
    return phi, locations, rng.standard_normal(m)


class TestCovarianceValidation:
    @pytest.mark.parametrize("case", sorted(BAD_COVARIANCES))
    def test_omp_rejects(self, case):
        phi, loc, values = _sampled(0)
        with pytest.raises(ValueError):
            omp(phi[loc], values, 3, covariance=BAD_COVARIANCES[case](loc.size))

    @pytest.mark.parametrize("case", sorted(BAD_COVARIANCES))
    def test_chs_rejects(self, case):
        phi, loc, values = _sampled(0)
        with pytest.raises(ValueError):
            chs(
                phi, values, loc, max_sparsity=3,
                covariance=BAD_COVARIANCES[case](loc.size),
            )


def _duplicated_dictionary(seed, m=10, distinct=3):
    """``distinct`` random columns plus an exact copy of column 1.

    With sparsity equal to the column count the copy is admitted, and it
    is exactly dependent on the support (it ties with column 1 and so
    always comes after it).
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, distinct))
    dictionary = np.column_stack([base, base[:, 1]])
    values = rng.standard_normal(m)
    variances = rng.uniform(0.05, 0.5, size=m) ** 2
    return dictionary, values, variances


COVARIANCE_FORMS = {
    "none": lambda v: None,
    "vector": lambda v: v,
    "matrix": lambda v: np.diag(v),
}


class TestRankDeficientDictionary:
    @pytest.mark.parametrize("form", sorted(COVARIANCE_FORMS))
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_column_takes_lstsq_fallback(
        self, monkeypatch, form, seed
    ):
        dictionary, values, variances = _duplicated_dictionary(seed)
        covariance = COVARIANCE_FORMS[form](variances)
        fallbacks = []

        class Recording(IncrementalQR):
            def solve(self, y):
                fallbacks.append(self.degenerate)
                return super().solve(y)

        monkeypatch.setattr(omp_module, "IncrementalQR", Recording)
        sparsity = dictionary.shape[1]
        fast = omp(dictionary, values, sparsity, tol=0.0, covariance=covariance)
        ref = omp_reference(
            dictionary, values, sparsity, tol=0.0, covariance=covariance
        )
        assert np.array_equal(fast.support, ref.support)
        # Refits run on the QR factor until the copy is admitted, then
        # on the min-norm ``lstsq`` fallback.
        admitted_copy = fast.support.tolist().index(3)
        assert fallbacks == [k >= admitted_copy for k in range(len(fallbacks))]
        assert np.allclose(
            fast.coefficients, ref.coefficients, rtol=0.0, atol=1e-8
        )
        # The min-norm fallback splits the weight evenly over the copies.
        assert fast.coefficients[1] == pytest.approx(fast.coefficients[3])


class TestIncrementalQRSolve:
    def test_singular_triangle_raises(self):
        inc = IncrementalQR(4, capacity=2)
        inc.add_column(np.array([1.0, 0.0, 0.0, 0.0]))
        inc._r[0, 0] = 0.0  # corrupt the factor: trtrs reports info=1
        with pytest.raises(np.linalg.LinAlgError, match="info=1"):
            inc.solve(np.ones(4))

    def test_admitted_column_is_not_written(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 2))
        kept = a.copy()
        inc = IncrementalQR(6, capacity=2)
        inc.add_column(a[:, 0])
        inc.add_column(a[:, 1])
        assert np.array_equal(a, kept)


class TestSanitizedRefit:
    @pytest.fixture
    def sanitize(self):
        was = contracts.enabled()
        contracts.enable(True)
        yield
        contracts.enable(was)

    def test_non_finite_omp_refit_trips_contract(self, sanitize):
        # Columns at 1e-200 with data at 1e150: selection is scale-free
        # and finite, but the refit's coefficients overflow to inf.
        rng = np.random.default_rng(0)
        dictionary = 1e-200 * rng.standard_normal((8, 16))
        values = 1e150 * rng.standard_normal(8)
        with pytest.raises(contracts.ContractViolation, match="omp refit"):
            omp(dictionary, values, 3)
