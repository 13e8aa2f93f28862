"""Tests for flops / cf metrics and the symbolic pass."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.sparse import CSCMatrix, csc_from_triples, identity_csc, random_csc
from repro.spgemm import (
    compression_factor,
    expansion_size,
    flops,
    flops_per_column,
    hash_operation_count,
    heap_operation_count,
    spgemm_esc,
    symbolic_nnz,
    symbolic_operation_count,
    work_profile,
    WorkProfile,
)


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_flops(a, b):
    da, db = a.to_dense() != 0, b.to_dense() != 0
    return int(sum((da[:, k].sum() * db[k, :].sum()) for k in range(a.ncols)))


class TestFlops:
    def test_flops_matches_brute_force(self, small_pair):
        a, b = small_pair
        assert flops(a, b) == brute_force_flops(a, b)

    def test_flops_per_column_sums_to_total(self, small_pair):
        a, b = small_pair
        assert flops_per_column(a, b).sum() == flops(a, b)

    def test_flops_identity(self, square_matrix):
        ident = identity_csc(square_matrix.ncols)
        assert flops(square_matrix, ident) == square_matrix.nnz

    def test_flops_equals_expansion_size(self, small_pair):
        a, b = small_pair
        assert flops(a, b) == expansion_size(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            flops(random_csc((3, 4), 0.5, 1), random_csc((5, 3), 0.5, 2))


class TestSymbolic:
    def test_symbolic_matches_actual_product(self, small_pair):
        a, b = small_pair
        product = spgemm_esc(a, b)
        assert symbolic_nnz(a, b) == product.nnz

    def test_symbolic_empty(self):
        a = CSCMatrix.empty((4, 4))
        assert symbolic_nnz(a, a) == 0

    def test_symbolic_cost_is_flops(self, small_pair):
        a, b = small_pair
        assert symbolic_operation_count(a, b) == float(flops(a, b))

    def test_symbolic_shape_mismatch(self):
        # Checked before the operands reach compiled code that does not
        # bounds-check: B's row indices 0..4 would overrun A's column
        # pointer.
        a, b = random_csc((3, 4), 0.5, 1), random_csc((5, 3), 0.5, 2)
        with pytest.raises(ShapeError):
            symbolic_nnz(a, b)

    def test_hypersparse_has_no_n_squared_term(self):
        # n = 10^6, nnz ~ 10^3: n^2 cells would be a terabyte of flags.
        n, nnz = 1_000_000, 1_000
        rng = np.random.default_rng(7)
        hubs = rng.integers(0, 40, nnz)  # shared inner indices: flops >> nnz
        a = csc_from_triples((n, n), rng.integers(0, n, nnz), hubs,
                             np.ones(nnz))
        b = csc_from_triples((n, n), hubs, rng.integers(0, n, nnz),
                             np.ones(nnz))
        assert flops(a, b) > 10 * nnz
        ones = [
            sp.csc_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
            for m in (a, b)
        ]
        expected = (ones[0] @ ones[1]).getnnz(axis=0)
        t0 = time.perf_counter()
        got, peak = traced_peak(symbolic_nnz, a, b)
        elapsed = time.perf_counter() - t0
        assert got == int(expected.sum())
        # tracemalloc sees NumPy's arrays but not the compiled pass's own
        # O(nrows) row mask (a C++ vector): the time bound is what rules
        # out an n^2 term (~0.01 s; n^2 work would take hours).
        assert elapsed < 1.0
        assert peak < 16 * 8 * n  # a few O(n) arrays


class TestCompressionFactor:
    def test_cf_definition(self, small_pair):
        a, b = small_pair
        c_nnz = symbolic_nnz(a, b)
        assert compression_factor(a, b, c_nnz) == pytest.approx(
            flops(a, b) / c_nnz
        )

    def test_cf_empty_product_is_one(self):
        a = CSCMatrix.empty((4, 4))
        assert compression_factor(a, a, 0) == 1.0

    def test_cf_negative_nnz_rejected(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            compression_factor(a, b, -1)

    def test_cf_at_least_one_for_real_products(self, square_matrix):
        # Every output nonzero requires at least one flop.
        c_nnz = symbolic_nnz(square_matrix, square_matrix)
        if c_nnz:
            assert (
                compression_factor(square_matrix, square_matrix, c_nnz) >= 1.0
            )


class TestWorkProfile:
    def test_profile_fields(self, small_pair):
        a, b = small_pair
        c_nnz = symbolic_nnz(a, b)
        p = work_profile(a, b, c_nnz)
        assert p.flops == flops(a, b)
        assert p.nnz_c == c_nnz
        assert p.max_column_flops == flops_per_column(a, b).max()
        assert not p.is_empty

    def test_empty_profile(self):
        a = CSCMatrix.empty((3, 3))
        assert work_profile(a, a, 0).is_empty

    @pytest.mark.parametrize("case", ["empty", "single-column", "hypersparse"])
    def test_from_per_column_is_bit_identical(self, case):
        # The SUMMA engine builds its per-product profile with
        # ``from_per_column`` on the flops it already holds; it must be the
        # profile ``work_profile`` gives, field for field, type for type,
        # float for float.
        if case == "empty":
            a, b = CSCMatrix.empty((5, 4)), CSCMatrix.empty((4, 3))
        elif case == "single-column":
            a = random_csc((30, 30), 0.2, seed=13)
            b = random_csc((30, 1), 0.5, seed=14)
        else:
            n, nnz = 100_000, 60
            rng = np.random.default_rng(3)
            hubs = rng.integers(0, 7, nnz)
            a = csc_from_triples((n, n), rng.integers(0, n, nnz), hubs,
                                 np.ones(nnz))
            b = csc_from_triples((n, n), hubs, rng.integers(0, n, nnz),
                                 np.ones(nnz))
        c_nnz = symbolic_nnz(a, b)
        per_col = flops_per_column(a, b)
        got = WorkProfile.from_per_column(per_col, a.nnz, b.nnz, c_nnz)
        # The reference: the same arithmetic, spelled out.
        total = int(per_col.sum())
        n_used = max(1, int((per_col > 0).sum()))
        expected = WorkProfile(
            flops=total,
            nnz_a=a.nnz,
            nnz_b=b.nnz,
            nnz_c=int(c_nnz),
            cf=(total / c_nnz) if c_nnz > 0 else 1.0,
            max_column_flops=int(per_col.max(initial=0)),
            mean_column_flops=total / n_used,
        )
        for profile in (got, work_profile(a, b, c_nnz)):
            for name, want in vars(expected).items():
                value = getattr(profile, name)
                assert type(value) is type(want), name
                if isinstance(want, float):
                    assert value.hex() == want.hex(), name
                else:
                    assert value == want, name
        assert got.flops == flops(a, b)
        assert got.is_empty == (case == "empty")


class TestOperationCounts:
    def test_heap_count_carries_log_factor(self, small_pair):
        a, b = small_pair
        f = flops(a, b)
        assert heap_operation_count(a, b) >= f  # lg k >= 1 for k >= 2

    def test_hash_count_bounds(self, small_pair):
        a, b = small_pair
        f = flops(a, b)
        c_nnz = symbolic_nnz(a, b)
        ops = hash_operation_count(a, b, c_nnz)
        # One probe per flop plus the final sort term, bounded by nnz·64.
        assert f <= ops <= f + 64 * c_nnz
