"""The perf subsystem's contracts: caches and arena."""

import numpy as np
import pytest

from repro.perf.arena import Arena
from repro.perf.cache import memo
from repro.sparse import CSCMatrix, random_csc


# ---------------------------------------------------------------------------
# Instance caches on CSCMatrix
# ---------------------------------------------------------------------------


def test_column_lengths_cached_and_read_only():
    mat = random_csc((40, 30), 0.1, seed=1)
    lens = mat.column_lengths()
    assert lens is mat.column_lengths()  # same object: cached
    assert not lens.flags.writeable
    with pytest.raises(ValueError):
        lens[0] = 99
    assert np.array_equal(lens, np.diff(mat.indptr))


def test_min_value_cached_and_total():
    mat = random_csc((40, 30), 0.1, seed=1)
    assert mat.min_value() == mat.data.min() > 0
    mat.data[0] = -3.0  # surgery without invalidation: the stale answer
    assert mat.min_value() > 0
    assert CSCMatrix.empty((3, 4)).min_value() == np.inf
    with_nan = CSCMatrix((1, 2), [0, 1, 2], [0, 0], [np.nan, 1.0])
    assert np.isnan(with_nan.min_value())
    assert np.signbit(CSCMatrix((1, 1), [0, 1], [0], [-0.0]).min_value())


def test_invalidate_caches_resets_lengths_and_memo():
    mat = random_csc((40, 30), 0.1, seed=2)
    lens = mat.column_lengths()
    calls = []
    assert memo(mat, "k", lambda: calls.append(1) or "v") == "v"
    mat.invalidate_caches()
    assert mat.column_lengths() is not lens
    memo(mat, "k", lambda: calls.append(1) or "v")
    assert len(calls) == 2  # rebuilt after invalidation


def test_memo_builds_once_per_key():
    mat = random_csc((20, 20), 0.1, seed=3)
    calls = []

    def build():
        calls.append(1)
        return {"x": 1}

    first = memo(mat, ("slab", 0, 5), build)
    again = memo(mat, ("slab", 0, 5), build)
    other = memo(mat, ("slab", 5, 9), build)
    assert first is again
    assert other is not first
    assert len(calls) == 2


class TestMutationPathsInvalidateCaches:
    """Audit of the immutable-after-construction contract.

    Every supported way of changing what a ``CSCMatrix`` holds must leave
    ``column_lengths()`` (and the memo) consistent: in-place array surgery
    must go through ``invalidate_caches()``, and every deriving method
    must return an instance whose caches start empty.
    """

    def _primed(self, seed=10):
        mat = random_csc((30, 24), 0.15, seed=seed)
        lens = mat.column_lengths()
        memo(mat, "probe", lambda: "stale")
        return mat, lens

    def test_inplace_data_surgery(self):
        mat, _ = self._primed()
        assert mat.min_value() > 0
        mat.data[:] = 2.0
        mat.data[0] = -1.0
        mat.invalidate_caches()
        assert memo(mat, "probe", lambda: "fresh") == "fresh"
        # The multiply sizes an unchecked write from this: never stale.
        assert mat.min_value() == -1.0

    def test_inplace_indptr_surgery(self):
        mat, lens = self._primed()
        # Drop the last column's entries by closing its indptr window.
        mat.indptr[-1] = mat.indptr[-2]
        mat.invalidate_caches()
        fresh = mat.column_lengths()
        assert fresh is not lens
        assert fresh[-1] == 0
        assert np.array_equal(fresh, np.diff(mat.indptr))
        assert memo(mat, "probe", lambda: "fresh") == "fresh"

    def test_inplace_indices_surgery(self):
        mat, lens = self._primed()
        if mat.nnz:
            mat.indices[0] = (mat.indices[0] + 1) % mat.nrows
        mat.invalidate_caches()
        assert mat.column_lengths() is not lens
        assert memo(mat, "probe", lambda: "fresh") == "fresh"

    @pytest.mark.parametrize(
        "derive",
        [
            lambda m: m.copy(),
            lambda m: m.sorted(),
            lambda m: m.sum_duplicates(),
            lambda m: m.pruned_zeros(),
            lambda m: m.transpose(),
            lambda m: m.column_slab(0, m.ncols // 2),
            lambda m: m.scale_columns(np.ones(m.ncols)),
        ],
        ids=["copy", "sorted", "sum_duplicates", "pruned_zeros",
             "transpose", "column_slab", "scale_columns"],
    )
    def test_deriving_methods_start_with_empty_caches(self, derive):
        mat, _ = self._primed()
        out = derive(mat)
        assert out._lens is None
        assert out._memo is None
        assert np.array_equal(out.column_lengths(), np.diff(out.indptr))
        # The derived instance's memo is independent of the parent's.
        assert memo(out, "probe", lambda: "fresh") == "fresh"
        assert memo(mat, "probe", lambda: "never") == "stale"


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------


def test_arena_buffers_grow_and_are_reused():
    arena = Arena()
    b1 = arena.buffer("w", 100, np.float64)
    assert len(b1) == 100
    b2 = arena.buffer("w", 50, np.float64)
    assert b2.base is b1 or b2.base is b1.base  # view of the same storage
    big = arena.buffer("w", 10_000, np.float64)
    assert len(big) == 10_000


def test_arena_reallocates_on_dtype_change():
    arena = Arena()
    arena.buffer("w", 10, np.float64)
    b = arena.buffer("w", 10, np.int64)
    assert b.dtype == np.int64
    assert len(b) == 10


def test_arena_flags_all_false_invariant():
    arena = Arena()
    flags = arena.flags("f", 64)
    assert not flags.any()
    flags[[3, 9]] = True
    flags[[3, 9]] = False  # caller restores, as the kernels do
    again = arena.flags("f", 32)
    assert not again.any()


def test_arena_release_drops_buffers():
    arena = Arena()
    arena.buffer("w", 10, np.float64)
    arena.release()
    fresh = arena.buffer("w", 10, np.float64)
    assert len(fresh) == 10
