"""Property tests: every numeric kernel against independent oracles.

Each operation has one implementation in ``src/``; what defends it is code
that shares nothing with it — the ``heapq`` and ``dict`` SpGEMM kernels,
SciPy, or a few lines of sequential Python written here.  The kernels
promise *bit* equality, not ``allclose`` (every group sum runs left to
right), so floats are compared by bit pattern, on signed values so
cancellation is stressed.  Where a kernel picks a strategy from the size of
its input, the price constants are patched so every example runs both.
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components as scipy_components

from repro.merge import SCHEDULES, run_schedule
from repro.merge.lists import TripleList, merge_lists
from repro.merge.spkadd import STRATEGY_LADDER, spkadd_merge
from repro.mcl.components import (
    UnionFind, canonical_labels, connected_components,
)
from repro.mcl.distributed_prune import distributed_topk_threshold
from repro.mcl.options import MclOptions
from repro.mcl.prune import prune_columns
from repro.perf import esc as perf_esc
from repro.perf import merge as perf_merge
from repro.perf import topk as perf_topk
from repro.sparse import (
    CSCMatrix, DCSCMatrix, block_of_csc, csc_from_triples, filter_threshold,
    hstack_csc, random_csc,
)
from repro.sparse import _compressed as _c
from repro.spgemm import hashspgemm
from repro.spgemm.esc import spgemm_esc
from repro.spgemm.estimator import _propagate_min, estimate_nnz
from repro.spgemm.hashspgemm import spgemm_hash
from repro.spgemm.heap import spgemm_heap
from repro.spgemm.metrics import flops_per_column
from repro.spgemm.symbolic import symbolic_nnz

from helpers import assert_same_csc, bits_equal, shuffled_rows

@contextmanager
def patched(module, **values):
    """Module constants set for the duration of the ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(module, name, value)
        yield


def cols_of(mat):
    return _c.expand_major(mat.indptr, mat.ncols)


def scipy_product(a, b):
    """``A @ B`` by SciPy, sorted.  SciPy drops entries that sum to zero."""
    c = a.to_scipy() @ b.to_scipy()
    c.sort_indices()
    return CSCMatrix(c.shape, c.indptr, c.indices, c.data)


@st.composite
def signed_matrices(draw, max_dim=20, square=False, fill=2):
    """Sparse matrices with signed values of mixed magnitude (so the order
    of a three-term sum shows in its bits) and duplicate coordinates."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, fill * max(nrows, ncols)))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.builds(
                lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                st.floats(-100.0, 100.0, allow_nan=False),
                st.integers(-4, 4),
            ),
            min_size=nnz, max_size=nnz,
        )
    )
    return csc_from_triples((nrows, ncols), rows, cols, vals)


@st.composite
def multipliable_pairs(draw, max_dim=10):
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    # Small and half full: most output entries sum several products.
    a = draw(signed_matrices(max_dim=max_dim, fill=5))
    b = draw(signed_matrices(max_dim=max_dim, fill=5))
    # Reshape by rebuilding with the drawn inner dimension.
    a = csc_from_triples((m, k), a.indices % m, cols_of(a) % k, a.data)
    b = csc_from_triples((k, n), b.indices % k, cols_of(b) % n, b.data)
    return a, b


@contextmanager
def esc_sorted_side():
    """Collects one entry per ``_compress_sorted`` call: the side of
    ``expand_compress`` that keeps cells summing to exactly 0.0."""
    calls = []
    real = perf_esc._compress_sorted

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    with patched(perf_esc, _compress_sorted=spy):
        yield calls


@contextmanager
def esc_side():
    """Which side of ``expand_compress`` ran, as a one-element list filled
    on exit: ``"one-phase"`` (output sized from the flops bound, no
    structural pass), ``"two-pass"`` (``csr_matmat_maxnnz`` first),
    ``"sorted"`` (two-pass found a zero sum and recomputed), or ``None``
    (the kernel was not reached).  Every compiled numeric pass must have
    stayed inside the buffer it was given."""
    from scipy.sparse import _sparsetools

    symbolic, numeric, side = [], [], []
    real_maxnnz, real_matmat = (
        _sparsetools.csr_matmat_maxnnz, _sparsetools.csr_matmat,
    )

    def maxnnz(*args):
        symbolic.append(1)
        return real_maxnnz(*args)

    def matmat(*args):
        real_matmat(*args)
        indptr, rows, vals = args[-3:]
        numeric.append(1)
        assert indptr[-1] <= len(rows) == len(vals), "output overran its bound"

    with esc_sorted_side() as sorted_calls, patched(
        _sparsetools, csr_matmat_maxnnz=maxnnz, csr_matmat=matmat
    ):
        yield side
    assert len(sorted_calls) <= len(symbolic) <= len(numeric) <= 1
    if sorted_calls:
        side.append("sorted")
    elif symbolic:
        side.append("two-pass")
    else:
        side.append("one-phase" if numeric else None)


def numpy_sorted(mat):
    """``mat`` with the rows of each column sorted by ``np.lexsort`` —
    nothing shared with the compiled counting sort."""
    order = np.lexsort((mat.indices, cols_of(mat)))
    return raw(mat.shape, mat.indptr, mat.indices[order], mat.data[order])


def assert_kernel_order_form(a, b, esc):
    """``kernel_order=True`` is C with each column's rows in some order,
    no row twice, and the per-column flops."""
    c, per_col = spgemm_esc(a, b, kernel_order=True)
    assert_same_csc(numpy_sorted(c), esc)
    assert c.indptr.dtype == esc.indptr.dtype
    assert np.array_equal(per_col, flops_per_column(a, b))


def assert_esc_matches_heap_and_hash(a, b, esc):
    heap, hashed = spgemm_heap(a, b), spgemm_hash(a, b)
    assert_same_csc(esc, heap)
    assert_same_csc(esc, hashed)
    return heap


@given(multipliable_pairs())
@settings(max_examples=100, deadline=None)
def test_esc_fast_bit_identical(pair):
    a, b = pair
    with esc_side() as side:
        esc = spgemm_esc(a, b)
    heap = assert_esc_matches_heap_and_hash(a, b, esc)
    # The compiled result is returned unless some cell summed to 0.0.
    assert (side == ["sorted"]) == bool(np.any(heap.data == 0.0))
    assert_same_csc(esc.pruned_zeros(), scipy_product(a, b))
    assert_kernel_order_form(a, b, esc)
    # The same operands made positive take the one-phase side, whose bound
    # must hold (``esc_side`` checks it) and whose bits the oracles match.
    a_pos, b_pos = positive(a), positive(b)
    with esc_side() as side:
        esc_pos = spgemm_esc(a_pos, b_pos)
    assert side == ["one-phase" if a.nnz and b.nnz else None]
    assert_esc_matches_heap_and_hash(a_pos, b_pos, esc_pos)
    assert_kernel_order_form(a_pos, b_pos, esc_pos)
    bound = int(np.minimum(flops_per_column(a_pos, b_pos), a.nrows).sum())
    assert bound >= esc_pos.nnz
    # Column slabs of B (what phases and pool workers multiply) stitch back.
    cut = b.ncols // 2
    slabs = [b.column_slab(0, cut), b.column_slab(cut, b.ncols)]
    assert_same_csc(hstack_csc([spgemm_esc(a, s) for s in slabs]), esc)


def raw(shape, indptr, indices, data):
    """Unvalidated CSC: unsorted and duplicate row indices allowed."""
    return CSCMatrix(shape, indptr, indices, data, check=False)


def positive(mat):
    """Same pattern, values strictly positive and of mixed magnitude."""
    return raw(mat.shape, mat.indptr, mat.indices, np.abs(mat.data) + 2.0 ** -20)


NAN, INF = np.nan, np.inf

#: name → (A, B, the side of ``expand_compress`` that must run — see
#: ``esc_side``; "sorted" is also where some output cell is exactly 0.0)
ESC_EDGE_CASES = {
    "plus-minus-one cancels": (
        raw((2, 2), [0, 2, 4], [0, 1, 0, 1], [1.0, 2.0, -1.0, 3.0]),
        raw((2, 1), [0, 2], [0, 1], [1.0, 1.0]),
        "sorted",
    ),
    # Both minima are negative, so their product is positive — and the
    # product of minima alone would call this safe.
    "negative minima, mixed signs cancel": (
        raw((1, 2), [0, 1, 2], [0, 0], [1.0, -1.0]),
        raw((2, 1), [0, 2], [0, 1], [-1.0, -1.0]),
        "sorted",
    ),
    "all negative, a product underflows": (
        raw((2, 2), [0, 1, 2], [0, 1], [-1e-200, -1.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [-1e-200, -1.0]),
        "sorted",
    ),
    "all negative, nothing cancels": (
        raw((2, 2), [0, 2, 3], [0, 1, 1], [-1.0, -2.0, -3.0]),
        raw((2, 2), [0, 2, 3], [0, 1, 0], [-4.0, -5.0, -6.0]),
        "two-pass",
    ),
    "stored zero in A": (
        raw((2, 2), [0, 1, 2], [0, 1], [0.0, 2.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [3.0, 4.0]),
        "sorted",
    ),
    "stored zero in B": (
        raw((2, 2), [0, 1, 2], [0, 1], [3.0, 4.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [0.0, 2.0]),
        "sorted",
    ),
    "product underflows to zero": (
        raw((2, 2), [0, 1, 2], [0, 1], [1e-200, 1.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [1e-200, 1.0]),
        "sorted",
    ),
    # Minima positive, their product 0.0: the one cell is structural.
    "product of minima underflows": (
        raw((1, 1), [0, 1], [0], [5e-200]),
        raw((1, 1), [0, 1], [0], [5e-200]),
        "sorted",
    ),
    "product of minima is subnormal": (
        raw((2, 2), [0, 1, 2], [0, 1], [1e-160, 1.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [1e-160, 1.0]),
        "one-phase",
    ),
    "negative zero product": (
        raw((1, 1), [0, 1], [0], [-1.0]),
        raw((1, 2), [0, 1, 2], [0, 0], [0.0, 5.0]),
        "sorted",
    ),
    "positive times negative zero": (
        raw((1, 1), [0, 1], [0], [2.0]),
        raw((1, 2), [0, 1, 2], [0, 0], [-0.0, 5.0]),
        "sorted",
    ),
    "nan and inf, every sum nonzero": (
        raw((3, 3), [0, 2, 3, 4], [0, 1, 2, 0], [1.0, INF, NAN, -INF]),
        raw((3, 2), [0, 3, 4], [0, 1, 2, 0], [2.0, 3.0, INF, 1.0]),
        "two-pass",
    ),
    "nan in one positive operand": (
        raw((2, 2), [0, 1, 2], [0, 1], [NAN, 1.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [2.0, 3.0]),
        "two-pass",
    ),
    "positive with inf": (
        raw((2, 2), [0, 2, 3], [0, 1, 1], [INF, 1.0, 2.0]),
        raw((2, 2), [0, 2, 3], [0, 1, 0], [2.0, INF, 3.0]),
        "one-phase",
    ),
    "nan from inf times stored zero": (
        raw((2, 2), [0, 1, 2], [0, 1], [INF, 1.0]),
        raw((2, 2), [0, 1, 2], [0, 1], [0.0, 0.0]),
        "sorted",
    ),
    # Row 2 of A's first column is stored twice and out of order, B's first
    # column names inner index 0 twice: 1e16 + 1 + 1 depends on the order,
    # and the flops bound counts the duplicates it will not store.
    "unsorted and duplicate indices": (
        raw((4, 3), [0, 3, 5, 6], [2, 0, 2, 3, 1, 0],
            [1e16, 1.0, 1.0, 3.0, 1e-3, 5.0]),
        raw((3, 2), [0, 3, 5], [2, 0, 0, 1, 1], [1.0, 1.0, 1.0, 4.0, 1e-9]),
        "one-phase",
    ),
    "duplicates that cancel": (
        raw((2, 1), [0, 2], [1, 1], [1.0, -1.0]),
        raw((1, 1), [0, 1], [0], [2.0]),
        "sorted",
    ),
    # The flops bound is met with equality: every product of a column lands
    # on its own row (flops_j < nrows) ...
    "bound tight, distinct rows": (
        raw((4, 4), [0, 1, 2, 3, 4], [2, 0, 3, 1], [1.0, 2.0, 3.0, 4.0]),
        raw((4, 3), [0, 2, 3, 6], [0, 3, 1, 0, 1, 2],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        "one-phase",
    ),
    # ... or every column of the product is full (flops_j > nrows).
    "bound tight, full columns": (
        raw((3, 3), [0, 3, 6, 9], [0, 1, 2] * 3, [1.0 + k for k in range(9)]),
        raw((3, 2), [0, 3, 6], [0, 1, 2] * 2, [1.0 + k for k in range(6)]),
        "one-phase",
    ),
    "no rows": (
        raw((0, 3), [0, 0, 0, 0], [], []),
        raw((3, 2), [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
        None,
    ),
    "no inner dimension": (
        raw((3, 0), [0], [], []), raw((0, 2), [0, 0, 0], [], []), None,
    ),
    "no columns": (
        raw((3, 2), [0, 1, 2], [0, 2], [1.0, 2.0]),
        raw((2, 0), [0], [], []),
        None,
    ),
    # B only names A's empty columns, and has an empty column of its own.
    "empty columns, structurally empty product": (
        raw((3, 3), [0, 2, 2, 2], [0, 1], [1.0, 2.0]),
        raw((3, 3), [0, 1, 1, 3], [1, 1, 2], [1.0, 2.0, 3.0]),
        "one-phase",
    ),
    "empty columns": (
        raw((3, 3), [0, 2, 2, 3], [0, 1, 2], [1.0, 2.0, 3.0]),
        raw((3, 3), [0, 1, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0]),
        "one-phase",
    ),
}


@pytest.mark.parametrize("case", sorted(ESC_EDGE_CASES))
def test_esc_edge_cases_run_the_side_they_should(case):
    a, b, expected = ESC_EDGE_CASES[case]
    with np.errstate(invalid="ignore", under="ignore"):  # inf·0, 1e-400
        with esc_side() as side:
            esc = spgemm_esc(a, b)
        assert_esc_matches_heap_and_hash(a, b, esc)
        assert_kernel_order_form(a, b, esc)
    assert side == [expected]
    # Structural entries survive as explicit zeros on the sorted side.
    assert bool(np.any(esc.data == 0.0)) == (expected == "sorted")
    if case.startswith("bound tight"):
        assert esc.nnz == np.minimum(flops_per_column(a, b), a.nrows).sum()


def test_esc_private_sparsetools_call_matches_public_scipy():
    # ``expand_compress`` calls SciPy's private compiled module directly;
    # on positive operands its result is SciPy's own public product.
    import scipy

    a = random_csc((60, 45), 0.15, seed=1)
    b = random_csc((45, 70), 0.15, seed=2)
    broken = (
        "repro.perf.esc calls scipy.sparse._sparsetools.csr_matmat_maxnnz / "
        "csr_matmat / csr_tocsc directly (supported: SciPy 1.10 to 1.17); "
        f"SciPy {scipy.__version__} no longer matches that private "
        "signature or its public `A @ B`"
    )
    try:
        # Positive operands take the one-phase side; a negated A the
        # two-pass side (which is where ``csr_matmat_maxnnz`` is called).
        negated = raw(a.shape, a.indptr, a.indices, -a.data)
        for left, expected in ((a, "one-phase"), (negated, "two-pass")):
            with esc_side() as side:
                got = perf_esc.sort_rows(perf_esc.expand_compress(left, b)[0])
            assert side == [expected]
            assert_same_csc(got, scipy_product(left, b))
    except (ImportError, AttributeError, TypeError, ValueError,
            AssertionError) as exc:
        pytest.fail(f"{broken}: {exc!r}")


def test_symbolic_private_sparsetools_calls_match_public_scipy():
    # The exact symbolic count is one private compiled call; on
    # rectangular operands with stored zeros and signed values it is the
    # size of the structure of SciPy's public product of the 0/1 patterns.
    import scipy

    a = random_csc((60, 45), 0.15, seed=3)
    b = random_csc((45, 70), 0.15, seed=4)
    a = raw(a.shape, a.indptr, a.indices, np.where(a.data < 0.2, 0.0, a.data))
    b = raw(b.shape, b.indptr, b.indices, b.data - 0.5)
    broken = (
        "repro.spgemm.symbolic calls scipy.sparse._sparsetools."
        "csr_matmat_maxnnz directly (supported: SciPy 1.10 to 1.17); SciPy "
        f"{scipy.__version__} no longer matches that private signature or "
        "the structure of its public `A @ B`"
    )
    try:
        ones = [
            sp.csc_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
            for m in (a, b)
        ]
        expected = (ones[0] @ ones[1]).getnnz(axis=0)
        assert symbolic_nnz(a, b) == expected.sum()
    except (ImportError, AttributeError, TypeError, ValueError,
            AssertionError) as exc:
        pytest.fail(f"{broken}: {exc!r}")


def test_esc_compiled_multiply_add_is_not_fused():
    # (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60 rounds to 1.0 as a product of its
    # own; added to -(1 - 2^-53) that gives 2^-53, where a fused
    # multiply-add would keep the 2^-60 and return 2^-53 - 2^-60.
    a = raw((1, 2), [0, 1, 2], [0, 0], [-(1.0 - 2.0 ** -53), 1.0 + 2.0 ** -30])
    b = raw((2, 1), [0, 2], [0, 1], [1.0, 1.0 - 2.0 ** -30])
    with esc_sorted_side() as sorted_calls:
        esc = spgemm_esc(a, b)
    assert not sorted_calls
    assert esc.data.tolist() == [2.0 ** -53], (
        "SciPy's csr_matmat was built with FMA contraction (possible off "
        "x86-64): its sums round differently from the heap and hash "
        "kernels, so spgemm_esc cannot be bit-identical to them here"
    )
    assert_esc_matches_heap_and_hash(a, b, esc)


@given(multipliable_pairs())
@settings(max_examples=60, deadline=None)
def test_heap_fast_bit_identical(pair):
    # The heap merges sorted cursors, so it sorts A's columns first (here
    # stored in descending row order); the sums still run in B-entry
    # order, which is what SciPy does too.
    a, b = pair
    order = np.lexsort((-a.indices, cols_of(a)))
    flipped = CSCMatrix(a.shape, a.indptr, a.indices[order], a.data[order])
    assert_same_csc(spgemm_heap(flipped, b).pruned_zeros(), scipy_product(a, b))


@given(multipliable_pairs())
@settings(max_examples=100, deadline=None)
def test_hash_spa_bit_identical(pair):
    # Both sides of SPA_FLOPS_THRESHOLD: every column through the dense
    # scratch, then every column through the dict probe.
    a, b = pair
    with patched(hashspgemm, SPA_FLOPS_THRESHOLD=0):
        spa = spgemm_hash(a, b)
    with patched(hashspgemm, SPA_FLOPS_THRESHOLD=1 << 60):
        probed = spgemm_hash(a, b)
    assert_same_csc(spa, probed)
    assert_same_csc(spa, spgemm_heap(a, b))


def test_hash_spa_path_actually_engages(monkeypatch):
    # At the shipped threshold one product uses both accumulators: heavy
    # columns take the SPA, the thinned half stays on the dict.
    a = random_csc((300, 300), 0.05, seed=3)
    b = hstack_csc(
        [a.column_slab(0, 150), random_csc((300, 150), 0.004, seed=4)]
    )
    spa_columns = []
    real = hashspgemm._spa_column

    def spy(*args, **kwargs):
        spa_columns.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashspgemm, "_spa_column", spy)
    out = spgemm_hash(a, b)
    assert 0 < len(spa_columns) < np.count_nonzero(b.column_lengths())
    assert_same_csc(out, spgemm_esc(a, b))


@given(signed_matrices(max_dim=24))
@settings(max_examples=60, deadline=None)
def test_dcsc_conversion_fast_bit_identical(mat):
    d = DCSCMatrix.from_csc(mat)
    assert_same_csc(d.to_csc(), mat)  # round trip
    assert np.array_equal(d.jc, np.flatnonzero(mat.column_lengths()))
    # Zero-copy: the source's read-only arrays are shared, not copied.
    assert d.ir is mat.indices and d.num is mat.data


@contextmanager
def merge_sides():
    """Counts the calls to each side of ``merge_triples``: the compiled
    addition ``chain`` and the stable ``sort`` that keeps zero sums."""
    calls = {"chain": 0, "sort": 0}

    def spy(side, real):
        def counted(*args):
            calls[side] += 1
            return real(*args)

        return counted

    with patched(
        perf_merge,
        _add_chain=spy("chain", perf_merge._add_chain),
        _sort_and_sum=spy("sort", perf_merge._sort_and_sum),
    ):
        yield calls


def accumulate(lists):
    """Sorted coordinates and their sums, accumulated from 0.0 one list
    after the other in sequential Python.  A lone non-empty list is handed
    through as it is (so its -0.0 stays -0.0)."""
    live = [t for t in lists if len(t)]
    if len(live) == 1:
        only = live[0]
        return list(zip(only.cols.tolist(), only.rows.tolist())), only.vals
    table = {}
    for t in live:
        for c, r, v in zip(t.cols.tolist(), t.rows.tolist(), t.vals.tolist()):
            table[c, r] = table.get((c, r), 0.0) + v
    coords = sorted(table)
    return coords, np.array([table[cr] for cr in coords], dtype=np.float64)


def assert_merges_match_accumulator(lists, shape):
    """``merge_lists`` and ``spkadd_merge`` under every label, called
    directly and as the engine of every schedule: each physical merge must
    return the accumulator's coordinates and bits for *its* operands."""

    def checked(engine):
        def merge(group):
            out = engine(list(group))
            coords, want = accumulate(group)
            assert out.shape == shape
            assert list(zip(out.cols.tolist(), out.rows.tolist())) == coords
            assert bits_equal(out.vals, want)
            assert np.array_equal(
                out.indptr, _c.compress_major(out.cols, shape[1])
            )
            return out

        return merge

    engines = [merge_lists] + [
        (lambda group, s=s: spkadd_merge(group, strategy=s))
        for s in STRATEGY_LADDER
    ]
    for engine in engines:
        checked(engine)(lists)
        for kind in SCHEDULES:
            run_schedule(kind, lists, shape, merge_fn=checked(engine))


@given(st.lists(signed_matrices(max_dim=14), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_merge_fast_bit_identical(mats):
    shape = mats[0].shape

    def lists_of(values):
        return [
            TripleList.from_csc(csc_from_triples(
                shape, m.indices % shape[0], cols_of(m) % shape[1], values(m),
            ))
            for m in mats
        ]

    assert_merges_match_accumulator(lists_of(lambda m: m.data), shape)
    # Strictly positive values of mixed magnitude: the chain, never the sort.
    positive = lists_of(lambda m: np.abs(m.data) + 2.0 ** -20)
    with merge_sides() as sides:
        assert_merges_match_accumulator(positive, shape)
    assert sides["sort"] == 0
    assert bool(sides["chain"]) == (sum(1 for t in positive if len(t)) > 1)


def triples(shape, indptr, rows, vals):
    return TripleList.from_csc(raw(shape, indptr, rows, vals), copy=False)


#: name → (shape, lists, side of the engine a k-way merge of them takes,
#: does some output cell hold exactly ±0.0?)
MERGE_EDGE_CASES = {
    "positive": (
        (3, 2),
        [triples((3, 2), [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
         triples((3, 2), [0, 1, 2], [2, 1], [0.5, 0.25]),
         triples((3, 2), [0, 0, 1], [0], [INF])],
        "chain", False,
    ),
    "plus-minus-one cancels": (
        (2, 2),
        [triples((2, 2), [0, 1, 2], [0, 1], [1.0, 2.0]),
         triples((2, 2), [0, 1, 2], [0, 1], [-1.0, 3.0])],
        "sort", True,
    ),
    "stored zero": (
        (2, 2),
        [triples((2, 2), [0, 1, 2], [0, 1], [0.0, 2.0]),
         triples((2, 2), [0, 1, 1], [1], [4.0])],
        "sort", True,
    ),
    "negative zero": (
        (2, 1),
        [triples((2, 1), [0, 2], [0, 1], [-0.0, 1.0]),
         triples((2, 1), [0, 1], [1], [5.0])],
        "sort", True,
    ),
    "nan and inf": (
        (2, 2),
        [triples((2, 2), [0, 2, 3], [0, 1, 0], [NAN, INF, 1.0]),
         triples((2, 2), [0, 2, 3], [0, 1, 0], [1.0, -INF, INF])],
        "sort", False,
    ),
    "empty lists between": (
        (2, 2),
        [TripleList.empty((2, 2)),
         triples((2, 2), [0, 1, 2], [0, 1], [1.0, 2.0]),
         TripleList.empty((2, 2)),
         triples((2, 2), [0, 1, 2], [0, 0], [3.0, 4.0])],
        "chain", False,
    ),
    "one live list": (
        (2, 2),
        [TripleList.empty((2, 2)),
         triples((2, 2), [0, 1, 2], [0, 1], [-0.0, -2.0])],
        None, True,
    ),
    "empty columns": (
        (3, 4),
        [triples((3, 4), [0, 0, 2, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
         triples((3, 4), [0, 0, 1, 1, 1], [2], [4.0])],
        "chain", False,
    ),
    "no rows": (
        (0, 3), [TripleList.empty((0, 3)), TripleList.empty((0, 3))],
        None, False,
    ),
    "no columns": (
        (3, 0), [TripleList.empty((3, 0)), TripleList.empty((3, 0))],
        None, False,
    ),
}


@pytest.mark.parametrize("case", sorted(MERGE_EDGE_CASES))
def test_merge_edge_cases_run_the_side_they_should(case):
    shape, lists, side, zero_sum = MERGE_EDGE_CASES[case]
    with np.errstate(invalid="ignore"):  # inf - inf
        assert_merges_match_accumulator(lists, shape)
        with merge_sides() as sides:
            out = merge_lists(list(lists))
    assert sides == {
        "chain": int(side == "chain"), "sort": int(side == "sort"),
    }
    # A cancelled (or stored-zero) cell survives as an explicit zero.
    assert bool(np.any(out.vals == 0.0)) == zero_sum
    assert len(out) == len({
        (c, r) for t in lists for c, r in zip(t.cols.tolist(), t.rows.tolist())
    })


def test_merge_sums_left_to_right():
    # 2^53 + 1 + 1 + 1: added one at a time every 1.0 is rounded away;
    # any other bracketing adds (1 + 1) somewhere and keeps it.
    big = 2.0 ** 53
    cell = lambda v: triples((1, 1), [0, 1], [0], [v])  # noqa: E731
    three = [cell(big), cell(1.0), cell(1.0)]
    assert (big + 1.0) + 1.0 != big + (1.0 + 1.0)
    four = three + [cell(1.0)]
    assert ((big + 1.0) + 1.0) + 1.0 != (big + 1.0) + (1.0 + 1.0)
    for lists in (three, four):
        with merge_sides() as sides:
            outs = [merge_lists(list(lists))] + [
                spkadd_merge(list(lists), strategy=s) for s in STRATEGY_LADDER
            ]
        assert sides == {"chain": len(outs), "sort": 0}
        for out in outs:
            assert out.vals.tolist() == [big], (
                "the chain must add ((l1 + l2) + l3) + ...: a balanced "
                "pairing or a right-to-left fold rounds differently"
            )


def merged_block(kind, mats, rng=None):
    """The block a schedule makes of stage products ``mats`` — merged as
    they are, or (given ``rng``) with the rows of every column of every
    product shuffled, as the kernel leaves them, and sorted once when
    finished."""
    if rng is not None:
        mats = [shuffled_rows(m, rng) for m in mats]
    lists = [TripleList.from_csc(m, copy=False) for m in mats]
    merged = run_schedule(kind, lists, mats[0].shape).result.to_csc()
    return merged if rng is None else perf_esc.sort_rows(merged)


@given(
    st.lists(signed_matrices(max_dim=12), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_kernel_order_merge_sorted_once_is_the_canonical_merge(mats, seed):
    # Per coordinate the chain and the stable sort add the same values in
    # list order whatever the order of the rows within a column, so
    # merging shuffled products and sorting once is the canonical merge.
    shape = mats[0].shape
    mats = [
        csc_from_triples(shape, m.indices % shape[0], cols_of(m) % shape[1],
                         m.data)
        for m in mats
    ]
    live = sum(1 for m in mats if m.nnz)
    for values, side in ((mats, "sort"), ([positive(m) for m in mats],
                                         "chain")):
        for kind in SCHEDULES:
            rng = np.random.default_rng(seed)
            with merge_sides() as sides:
                got = merged_block(kind, values, rng)
            assert_same_csc(got, merged_block(kind, values))
            if side == "chain":
                assert sides["sort"] == 0
                assert bool(sides["chain"]) == (live > 1)
            elif any(m.nnz and m.data.min() <= 0 for m in values):
                # Signed lists: every merge with a value <= 0 in it sorts.
                assert sides["sort"] or live <= 1


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_kernel_order_merge_keeps_the_summation_order(kind, data):
    # The 2^53 + 1 + 1 + 1 trap of ``test_merge_sums_left_to_right`` in
    # one cell of a 4x3 block, next to cells only some stage products
    # fill, with the rows of every product shuffled.
    big = 2.0 ** 53
    shape = (4, 3)
    trap = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 2)))
    mats = []
    for v in (big, 1.0, 1.0, 1.0):
        fill = data.draw(st.lists(st.booleans(), min_size=12, max_size=12))
        dense = np.where(np.reshape(fill, shape), 0.5, 0.0)
        dense[trap] = v
        mats.append(CSCMatrix.from_dense(dense))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with merge_sides() as sides:
        got = merged_block(kind, mats, rng)
    assert sides["sort"] == 0 and sides["chain"]
    assert_same_csc(got, merged_block(kind, mats))
    if kind != "binary":  # binary brackets its own groups
        assert got.to_dense()[trap] == big


def test_merge_private_sparsetools_call_matches_public_scipy():
    # ``_add_chain`` calls SciPy's private compiled module directly; on
    # positive operands its result is SciPy's own public sum — for sorted
    # operands, and for operands whose rows are shuffled within each
    # column, as the stage products the engine merges are.
    import scipy

    a = random_csc((60, 45), 0.15, seed=1)
    b = random_csc((60, 45), 0.15, seed=2)
    rng = np.random.default_rng(3)
    broken = (
        "repro.perf.merge calls scipy.sparse._sparsetools.csr_plus_csr "
        "directly (supported: SciPy 1.10 to 1.17) and relies on its "
        "general (non-canonical) path summing operands whose rows are "
        "unsorted within a column; "
        f"SciPy {scipy.__version__} no longer matches that private "
        "signature or its public `A + B`"
    )
    try:
        for left, right in ((a, b),
                            (shuffled_rows(a, rng), shuffled_rows(b, rng))):
            assert left.has_sorted_indices() == (left is a)
            want = left.to_scipy() + right.to_scipy()
            want.sort_indices()
            with merge_sides() as sides:
                got = merge_lists([
                    TripleList.from_csc(left, copy=False),
                    TripleList.from_csc(right, copy=False),
                ])
            assert sides == {"chain": 1, "sort": 0}
            assert_same_csc(
                perf_esc.sort_rows(got.to_csc()),
                CSCMatrix(want.shape, want.indptr, want.indices, want.data),
            )
    except (ImportError, AttributeError, TypeError, ValueError,
            AssertionError) as exc:
        pytest.fail(f"{broken}: {exc!r}")


def nonnegative(mat, ncols=None):
    """Prune operates on non-negative flow matrices.  Nine value levels:
    columns are full of ties, and the zeros fall to the cutoff."""
    ncols = mat.ncols if ncols is None else ncols
    return csc_from_triples(
        (mat.nrows, ncols), mat.indices, cols_of(mat) % ncols,
        np.round(np.abs(mat.data) % 8),
    )


@given(
    signed_matrices(max_dim=12, fill=6),
    st.integers(1, 6),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_prune_fast_matches_reference(mat, select, recover):
    mat = nonnegative(mat)
    opts = MclOptions(
        select_number=select,
        recover_number=min(recover, select),  # validated: recover <= select
        prune_threshold=1e-3,
    )
    # Column by column: stable descending order, cutoff, top-k, recovery.
    keep = np.zeros(mat.nnz, dtype=bool)
    for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:]):
        order = lo + np.argsort(-mat.data[lo:hi], kind="stable")
        alive = order[mat.data[order] >= opts.prune_threshold][:select]
        keep[alive] = True
        if len(alive) < opts.recover_number:
            keep[order[: opts.recover_number]] = True
    want = csc_from_triples(
        mat.shape, mat.indices[keep], cols_of(mat)[keep], mat.data[keep]
    )
    partition, stats = prune_columns(mat, opts)
    with patched(perf_topk, PAD_CELL_LIMIT=0):  # column_kth_largest → None
        ranked, stats_ranked = prune_columns(mat, opts)
    assert_same_csc(partition, want)
    assert_same_csc(ranked, want)
    assert stats == stats_ranked
    assert stats.entries_out == int(keep.sum())


@given(signed_matrices(max_dim=24, square=True))
@settings(max_examples=80, deadline=None)
def test_components_fast_matches_union_find(mat):
    labels = connected_components(mat)
    uf = UnionFind(mat.nrows)
    for r, c in zip(mat.indices.tolist(), cols_of(mat).tolist()):
        uf.union(r, c)
    assert np.array_equal(labels, uf.labels())
    pattern = sp.csc_matrix(
        (np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape
    )
    _, raw = scipy_components(pattern, directed=False)
    assert np.array_equal(labels, canonical_labels(raw))


@given(
    st.lists(signed_matrices(max_dim=12, fill=4), min_size=1, max_size=4),
    st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_distributed_topk_fast_matches(mats, k):
    ncols = mats[0].ncols
    blocks = [nonnegative(m, ncols) for m in mats]
    want = np.full(ncols, -np.inf)
    for j in range(ncols):
        column = np.sort(np.concatenate(
            [blk.data[blk.indptr[j]:blk.indptr[j + 1]] for blk in blocks]
        ))
        if len(column) >= k:
            want[j] = column[-k]
    assert bits_equal(distributed_topk_threshold(blocks, k), want)
    with patched(perf_topk, PAD_CELL_LIMIT=0):  # the sort-based ranking
        assert bits_equal(distributed_topk_threshold(blocks, k), want)


@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.lists(
        st.tuples(
            st.integers(0, 39),
            st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0]),
        ),
        max_size=80,
    ),
)
@settings(max_examples=120, deadline=None)
def test_column_kth_largest_matches_sorted_columns(ncols, k, entries):
    # Columns ascending, values in drawn order within a column.
    entries = sorted(((c, v) for c, v in entries if c < ncols),
                     key=lambda e: e[0])
    cols = np.array([c for c, _ in entries], dtype=np.int64)
    vals = np.array([v for _, v in entries], dtype=np.float64)
    want = np.full(ncols, -np.inf)
    for j in range(ncols):
        column = np.sort(vals[cols == j])
        if len(column) >= k:
            want[j] = column[-k]
    got = perf_topk.column_kth_largest(cols, vals, ncols, k)
    assert got is None or bits_equal(got, want)
    with patched(perf_topk, PAD_WASTE_FACTOR=1 << 30):  # always partition
        assert bits_equal(
            perf_topk.column_kth_largest(cols, vals, ncols, k), want
        )


def test_column_kth_largest_pads_only_the_columns_needing_a_threshold():
    # One column of 3 entries among 100,000: padding every column to it
    # would be 300,000 cells for 3 entries, far past the waste guard; the
    # one column that needs a threshold is 3 cells.
    cols = np.zeros(3, dtype=np.int64)
    vals = np.array([0.5, 2.0, 1.0])
    got = perf_topk.column_kth_largest(cols, vals, 100_000, 2)
    assert got is not None
    assert got[0] == 1.0 and np.all(got[1:] == -np.inf)
    assert np.all(perf_topk.column_kth_largest(cols, vals, 100_000, 4)
                  == -np.inf)


@given(multipliable_pairs(), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_estimator_fixed_seed_identical(pair, keys):
    a, b = pair
    draws = np.random.default_rng(7).exponential(size=(keys, a.nrows))
    stored = np.zeros(a.shape, dtype=bool)
    stored[a.indices, cols_of(a)] = True
    want = np.where(stored[None], draws[:, :, None], np.inf).min(axis=1)
    assert bits_equal(_propagate_min(draws, a).ravel(), want.ravel())
    # Nothing carries from one call to the next.
    first = estimate_nnz(a, b, keys=keys, seed=42)
    again = estimate_nnz(a, b, keys=keys, seed=42)
    assert bits_equal(first.per_column, again.per_column)
    assert first.total == again.total


def lexsort_sum_duplicates(indptr, indices, data, n_major):
    """The unconditional form: lexsort, then ``reduceat`` over the groups."""
    major = np.repeat(np.arange(n_major), np.diff(indptr))
    order = np.lexsort((indices, major))
    major, minor, vals = major[order], indices[order], data[order]
    first = np.r_[True, (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])]
    starts = np.flatnonzero(first)
    counts = np.bincount(major[starts], minlength=n_major)
    indptr = np.r_[0, np.cumsum(counts)].astype(_c.INDEX_DTYPE)
    return indptr, minor[starts], np.add.reduceat(vals, starts)


@given(
    st.integers(1, 6), st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.floats(-1e3, 1e3, allow_nan=False, width=32)),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_sum_duplicates_sorts_only_what_is_unsorted(n_major, n_minor, entries):
    # One draw, three inputs: as drawn (grouped by major only), sorted with
    # its duplicates, and canonical.  Each must give the lexsort's result —
    # the duplicates summed in stored order — and only the first may sort.
    major, minor, vals = (np.array(x) for x in zip(*entries))
    major = (major % n_major).astype(_c.INDEX_DTYPE)
    minor = (minor % n_minor).astype(_c.INDEX_DTYPE)
    vals = vals.astype(np.float64)
    grouped = np.argsort(major, kind="stable")
    indptr = _c.compress_major(major, n_major)
    drawn = (indptr, minor[grouped], vals[grouped])
    in_order = np.lexsort((drawn[1], major[grouped]))
    with_duplicates = (indptr, drawn[1][in_order], drawn[2][in_order])
    want = lexsort_sum_duplicates(*drawn, n_major)
    for given_, may_sort in (
        (drawn, True), (with_duplicates, False), (want, False),
    ):
        sorts = []
        real = np.lexsort
        with patched(np, lexsort=lambda keys: sorts.append(1) or real(keys)):
            got = _c.sum_duplicates(*given_, n_major)
        descends = any(
            np.any(np.diff(given_[1][lo:hi]) < 0)
            for lo, hi in zip(given_[0][:-1], given_[0][1:])
        )
        assert len(sorts) == descends <= may_sort
        for out, ref, src in zip(got, want, given_):
            assert out.dtype == ref.dtype and np.array_equal(out, ref)
            assert not np.shares_memory(out, src)
        assert bits_equal(got[2], want[2])


@given(signed_matrices(max_dim=20), st.data())
@settings(max_examples=60, deadline=None)
def test_construct_and_filter_match_scipy(mat, data):
    # Shuffled triples, the first half stored twice (a two-term sum is
    # the same in either order, so the values compare bit for bit).
    pick = np.asarray(data.draw(st.permutations(range(mat.nnz))), dtype=int)
    pick = np.concatenate([pick, pick[: mat.nnz // 2]])
    rows, cols, vals = mat.indices[pick], cols_of(mat)[pick], mat.data[pick]
    ref = sp.coo_matrix((vals, (rows, cols)), shape=mat.shape).tocsc()
    built = csc_from_triples(mat.shape, rows, cols, vals)
    assert_same_csc(built, CSCMatrix.from_scipy(ref))
    r0, r1 = sorted(data.draw(st.tuples(*[st.integers(0, mat.nrows)] * 2)))
    c0, c1 = sorted(data.draw(st.tuples(*[st.integers(0, mat.ncols)] * 2)))
    assert_same_csc(
        block_of_csc(built, r0, r1, c0, c1),
        CSCMatrix.from_scipy(ref[r0:r1, c0:c1]),
    )
    coo = ref.tocoo()
    cut = np.sort(coo.data)[coo.nnz // 2] if coo.nnz else 0.5  # a stored value
    above = coo.data >= cut
    want = sp.coo_matrix(
        (coo.data[above], (coo.row[above], coo.col[above])), shape=mat.shape
    )
    assert_same_csc(filter_threshold(built, cut), CSCMatrix.from_scipy(want))
