"""Tests for TripleList and the three merge schedules (paper §IV)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.merge import (
    BYTES_PER_TRIPLE,
    BinaryMergeSchedule,
    TripleList,
    merge_lists,
    run_schedule,
)
from repro.sparse import random_csc


def lists_for(n_lists, shape=(30, 30), density=0.1, seed0=0):
    mats = [random_csc(shape, density, seed=seed0 + i) for i in range(n_lists)]
    expected = sum(m.to_dense() for m in mats)
    return [TripleList.from_csc(m) for m in mats], expected


class TestTripleList:
    def test_roundtrip(self, square_matrix):
        t = TripleList.from_csc(square_matrix)
        assert t.to_csc().same_pattern_and_values(square_matrix.sorted())

    def test_sortedness(self, square_matrix):
        assert TripleList.from_csc(square_matrix).is_sorted()

    def test_nbytes(self, square_matrix):
        t = TripleList.from_csc(square_matrix)
        assert t.nbytes == len(t) * BYTES_PER_TRIPLE

    def test_empty(self):
        t = TripleList.empty((4, 4))
        assert len(t) == 0 and t.is_sorted()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            TripleList((2, 2), [0], [0, 1], [1.0])

    def test_csc_view_shares_arrays_and_allocates_nothing(self):
        import tracemalloc

        mat = random_csc((2000, 2000), 0.01, seed=5)  # 40k entries, 1 MB
        tracemalloc.start()
        t = TripleList.from_csc(mat, copy=False)
        back = t.to_csc()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * 1024  # objects only; one O(nnz) array is 320 kB
        for arr, src in ((t.indptr, mat.indptr), (t.rows, mat.indices),
                         (t.vals, mat.data)):
            assert arr is src
        assert back.indptr is mat.indptr
        assert back.indices is mat.indices and back.data is mat.data
        # The default copies, so the list outlives edits to the matrix.
        owned = TripleList.from_csc(mat)
        assert not any(
            np.shares_memory(a, b)
            for a in (owned.indptr, owned.rows, owned.vals)
            for b in (mat.indptr, mat.indices, mat.data)
        )

    def test_cols_and_indptr_are_two_views_of_one_list(self, square_matrix):
        from repro.sparse import _compressed as _c

        mat = square_matrix.sorted()
        t = TripleList.from_csc(mat)
        cols = t.cols  # expanded on demand
        assert np.array_equal(cols, _c.expand_major(mat.indptr, mat.ncols))
        assert t.cols is cols
        assert np.array_equal(_c.compress_major(cols, mat.ncols), mat.indptr)
        # Built from coordinates, the list derives the same indptr.
        again = TripleList(mat.shape, cols, t.rows, t.vals)
        assert np.array_equal(again.indptr, mat.indptr)
        assert again.to_csc().same_pattern_and_values(mat)


class TestMergeLists:
    def test_merge_two(self):
        lists, expected = lists_for(2)
        out = merge_lists(lists)
        assert np.allclose(out.to_csc().to_dense(), expected)
        assert out.is_sorted()

    def test_merge_many(self):
        lists, expected = lists_for(9)
        assert np.allclose(merge_lists(lists).to_csc().to_dense(), expected)

    def test_merge_with_empties(self):
        lists, expected = lists_for(3)
        lists.insert(1, TripleList.empty((30, 30)))
        assert np.allclose(merge_lists(lists).to_csc().to_dense(), expected)

    def test_merge_all_empty(self):
        out = merge_lists([TripleList.empty((5, 5)), TripleList.empty((5, 5))])
        assert len(out) == 0

    def test_merge_none_rejected(self):
        with pytest.raises(ValueError):
            merge_lists([])

    def test_merge_shape_mismatch(self):
        a = TripleList.from_csc(random_csc((4, 4), 0.5, 1))
        b = TripleList.from_csc(random_csc((5, 5), 0.5, 2))
        with pytest.raises(ShapeError):
            merge_lists([a, b])


@pytest.mark.parametrize("kind", ["multiway", "twoway", "binary"])
class TestSchedules:
    @pytest.mark.parametrize("n_lists", [1, 2, 4, 5, 7, 8, 16])
    def test_correct_for_any_stage_count(self, kind, n_lists):
        lists, expected = lists_for(n_lists, seed0=n_lists * 10)
        out = run_schedule(kind, lists, (30, 30))
        assert np.allclose(out.result.to_csc().to_dense(), expected)

    def test_empty_stream(self, kind):
        out = run_schedule(kind, [], (6, 6))
        assert len(out.result) == 0

    def test_operations_positive(self, kind):
        lists, _ = lists_for(4)
        out = run_schedule(kind, lists, (30, 30))
        assert out.operations > 0
        assert out.peak_event_elements > 0


class TestScheduleProperties:
    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            run_schedule("quantum", [], (3, 3))

    def test_binary_merges_on_even_stages(self):
        lists, _ = lists_for(8)
        sched = BinaryMergeSchedule((30, 30))
        merge_stage = []
        for lst in lists:
            before = len(sched.events)
            sched.push(lst)
            if len(sched.events) > before:
                merge_stage.append(sched._stage)
        # Algorithm 2 merges only at even arrival indices.
        assert all(s % 2 == 0 for s in merge_stage)
        sched.finish()

    def test_binary_event_count_power_of_two(self):
        # For k = 2^m lists, binary merge performs exactly k - 1 pairwise-
        # group merges folded into m-level events: event count equals k/2
        # at level 1 plus deeper levels → total events = k - popcount(k).
        lists, _ = lists_for(8)
        out = run_schedule("binary", lists, (30, 30))
        assert len(out.events) == 4  # stages 2,4,6,8 trigger merges

    def test_multiway_single_event(self):
        lists, _ = lists_for(6)
        out = run_schedule("multiway", lists, (30, 30))
        assert len(out.events) == 1
        assert out.events[0].input_sizes == tuple(len(t) for t in lists)

    def test_twoway_event_per_arrival(self):
        lists, _ = lists_for(6)
        out = run_schedule("twoway", lists, (30, 30))
        assert len(out.events) == 5

    def test_binary_peak_not_above_multiway(self):
        """The paper's Table III claim: binary merge needs less peak memory
        because partial results compress along the way."""
        # Overlapping patterns (same seed block structure) compress well.
        mats = [random_csc((40, 40), 0.25, seed=s) for s in range(8)]
        lists = [TripleList.from_csc(m) for m in mats]
        multi = run_schedule("multiway", lists, (40, 40))
        binary = run_schedule("binary", lists, (40, 40))
        assert (
            binary.peak_event_elements <= multi.peak_event_elements
        )

    def test_schedules_agree_exactly(self):
        lists, _ = lists_for(7, seed0=77)
        outs = {
            k: run_schedule(k, lists, (30, 30)).result
            for k in ("multiway", "twoway", "binary")
        }
        ref = outs["multiway"]
        for k, out in outs.items():
            assert np.array_equal(out.cols, ref.cols), k
            assert np.array_equal(out.rows, ref.rows), k
            assert np.allclose(out.vals, ref.vals), k

    def test_binary_ops_within_lglg_factor(self):
        """§IV analysis: binary merge is at most ~lg lg k worse than
        multiway in operation count."""
        lists, _ = lists_for(16, seed0=5)
        multi = run_schedule("multiway", lists, (30, 30))
        binary = run_schedule("binary", lists, (30, 30))
        assert binary.operations <= 3.0 * multi.operations
