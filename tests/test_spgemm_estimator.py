"""Tests for the Cohen probabilistic nnz estimator (paper §V)."""

import numpy as np
import pytest

from repro.errors import EstimationError, ShapeError
from repro.sparse import CSCMatrix, identity_csc, random_csc
from repro.spgemm import (
    estimate_nnz,
    relative_error,
    spgemm_esc,
    symbolic_nnz,
)


class TestBasics:
    def test_needs_two_keys(self, small_pair):
        a, b = small_pair
        with pytest.raises(EstimationError):
            estimate_nnz(a, b, keys=1)

    def test_rate_must_be_positive(self, small_pair):
        a, b = small_pair
        with pytest.raises(EstimationError):
            estimate_nnz(a, b, rate=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            estimate_nnz(random_csc((3, 4), 0.5, 1), random_csc((5, 3), 0.5, 2))

    def test_empty_product_estimates_zero(self):
        a = CSCMatrix.empty((10, 10))
        est = estimate_nnz(a, a, keys=4, seed=0)
        assert est.total == 0.0

    def test_operations_formula(self, small_pair):
        a, b = small_pair
        est = estimate_nnz(a, b, keys=7, seed=0)
        assert est.operations == 7.0 * (a.nnz + b.nnz)

    def test_deterministic_in_seed(self, small_pair):
        a, b = small_pair
        e1 = estimate_nnz(a, b, keys=5, seed=3)
        e2 = estimate_nnz(a, b, keys=5, seed=3)
        assert np.array_equal(e1.per_column, e2.per_column)


class TestAccuracy:
    def test_identity_estimated_well(self):
        # Product with the identity: every output column has exactly the
        # input column's nnz; with many keys the estimate must be close.
        mat = random_csc((300, 300), 0.03, seed=1)
        est = estimate_nnz(mat, identity_csc(300), keys=96, seed=0)
        exact = mat.nnz
        assert relative_error(est.total, exact) < 15.0

    def test_error_shrinks_with_keys(self):
        a = random_csc((400, 400), 0.02, seed=2)
        exact = symbolic_nnz(a, a)
        errors = {}
        for r in (3, 24, 192):
            # Average over seeds to beat sampling noise in the test itself.
            errs = [
                relative_error(estimate_nnz(a, a, keys=r, seed=s).total, exact)
                for s in range(5)
            ]
            errors[r] = np.mean(errs)
        assert errors[192] < errors[3]

    def test_per_column_estimates_track_exact(self):
        a = random_csc((500, 200), 0.03, seed=4)
        b = random_csc((200, 150), 0.03, seed=5)
        est = estimate_nnz(a, b, keys=256, seed=1)
        product = spgemm_esc(a, b)
        exact = np.diff(product.indptr)
        populated = exact > 5
        ratio = est.per_column[populated] / exact[populated]
        assert 0.6 < np.median(ratio) < 1.4

    def test_rate_invariance(self, small_pair):
        # The estimator cancels λ; different rates, same expectation.
        a, b = small_pair
        exact = symbolic_nnz(a, b)
        for rate in (0.5, 1.0, 4.0):
            errs = [
                relative_error(
                    estimate_nnz(a, b, keys=64, seed=s, rate=rate).total, exact
                )
                for s in range(4)
            ]
            assert np.mean(errs) < 30.0

class TestRelativeError:
    def test_exact_zero_cases(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")

    def test_symmetric_magnitude(self):
        assert relative_error(110, 100) == pytest.approx(10.0)
        assert relative_error(90, 100) == pytest.approx(10.0)
