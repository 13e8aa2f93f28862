"""Host index width: int32 arrays, checked boundaries, modeled sizes.

Every index array is ``_c.INDEX_DTYPE`` (int32).  Outside input that
does not fit must raise a typed error instead of wrapping into range;
what can pass 2³¹ (coordinate keys) is computed in int64; and every
simulated size models HipMCL's 8-byte indices, whatever the host holds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import CheckpointError, FormatError, ShapeError
from repro.merge.lists import TripleList, merge_lists
from repro.mpi import ProcessGrid
from repro.resilience.checkpoint import (
    MclCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.jobs import graph_fingerprint
from repro.sparse import (
    CSCMatrix,
    DCSCMatrix,
    csc_from_triples,
    hadamard_power,
    random_csc,
    read_matrix_market,
)
from repro.sparse import _compressed as _c
from repro.summa.distmatrix import DistributedCSC

BIG = 2**31


def test_index_dtype_is_int32():
    assert _c.INDEX_DTYPE == np.int32
    assert _c.INDEX_LIMIT == np.iinfo(_c.INDEX_DTYPE).max + 1


class TestOutsideInputNeverWraps:
    # Each case would pass ``validate`` after a wrapping cast: 2³² + 1
    # becomes 1 in int32.  Shapes carry no entries, so nothing is large.

    def test_constructor_refuses_an_index_that_would_wrap(self):
        indices = np.array([2**32 + 1], dtype=np.int64)
        with pytest.raises(FormatError):
            CSCMatrix((5, 1), np.array([0, 1]), indices, [1.0])
        with pytest.raises(FormatError):
            CSCMatrix((5, 1), np.array([0, 1]), indices, [1.0], check=False)
        with pytest.raises(FormatError):
            CSCMatrix((5, 1), np.array([0, 2**32 + 1]), [1], [1.0])

    def test_constructor_refuses_a_dimension_past_the_limit(self):
        # The shape is checked before any array is read, so a short
        # ``indptr`` is enough (a real one would be 8 GiB).
        for shape in ((BIG, 1), (1, BIG)):
            with pytest.raises(ShapeError):
                CSCMatrix(shape, [0, 0], [], [], check=False)
            with pytest.raises(ShapeError):
                CSCMatrix.empty(shape)
        with pytest.raises(ShapeError):
            DCSCMatrix((BIG, 1), [], [0], [], [])
        CSCMatrix.empty((BIG - 1, 0))

    def test_dcsc_refuses_an_index_that_would_wrap(self):
        with pytest.raises(FormatError):
            DCSCMatrix((5, 1), [0], [0, 1], [2**32 + 1], [1.0])

    def test_from_scipy(self):
        big = sp.csc_matrix((BIG, 1))
        with pytest.raises(ShapeError):
            CSCMatrix.from_scipy(big)

    def test_csc_from_triples(self):
        with pytest.raises(ShapeError):
            csc_from_triples((BIG, 1), [], [], [])
        # In range for int64, out of range for the shape: checked before
        # the narrowing cast, which would make row 2³² + 1 row 1.
        for rows, cols in (([2**32 + 1], [0]), ([0], [2**32 + 1])):
            with pytest.raises(ShapeError):
                csc_from_triples(
                    (5, 5), np.array(rows, dtype=np.int64),
                    np.array(cols, dtype=np.int64), [1.0],
                )

    @pytest.mark.parametrize(
        "size", [f"{BIG} 1 0", f"1 {BIG} 0", f"1 1 {BIG}"]
    )
    def test_matrix_market_header(self, tmp_path, size):
        path = tmp_path / "big.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n" + size + "\n"
        )
        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_matrix_market_entry(self, tmp_path):
        path = tmp_path / "wrap.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"5 5 1\n{2**32 + 2} 1 1.0\n"
        )
        with pytest.raises(ShapeError):
            read_matrix_market(path)

    def _checkpoint_with(self, tmp_path, shape, indptr, indices):
        path = tmp_path / "mcl-iter-0001.ckpt.npz"
        work = CSCMatrix.empty((2, 2))
        save_checkpoint(path, MclCheckpoint(1, work, [], 1.0, 0.0, {}, "fp"))
        # Rewrite the payload as a writer with int64 indices would have,
        # with a valid checksum, so only the narrowing can catch it.
        from repro.resilience.checkpoint import _checksum

        with np.load(path) as npz:
            meta = json.loads(str(npz["meta"]))
        meta.pop("checksum")
        meta["shape"] = list(shape)
        arrays = {
            "indptr": np.asarray(indptr, dtype=np.int64),
            "indices": np.asarray(indices, dtype=np.int64),
            "data": np.ones(len(indices)),
        }
        meta["checksum"] = _checksum(meta, arrays)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        return path

    def test_checkpoint_npz(self, tmp_path):
        ok = self._checkpoint_with(tmp_path, (5, 1), [0, 1], [4])
        assert load_checkpoint(ok).work.indices.dtype == _c.INDEX_DTYPE
        for shape, indptr, indices in (
            ((5, 1), [0, 1], [2**32 + 4]),
            ((BIG, 1), [0, 0], []),
        ):
            path = self._checkpoint_with(tmp_path, shape, indptr, indices)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


def _python_sum(lists):
    """The merge by Python ints and floats: per coordinate, ``0.0 + v₁ +
    v₂ + …`` in list order."""
    sums: dict[tuple[int, int], float] = {}
    for t in lists:
        for c, r, v in zip(t.cols.tolist(), t.rows.tolist(), t.vals.tolist()):
            sums[(c, r)] = sums.get((c, r), 0.0) + v
    return sorted(sums.items())


def test_signed_merge_on_a_block_past_2_31_cells():
    # nrows·ncols = 4.9e9: the coordinate key ``col·nrows + row`` passes
    # 2³¹ for every column past 30,678, so an int32 key would wrap and
    # collide.  Negative values send the merge down the sort path.
    nrows = ncols = 70_000
    rng = np.random.default_rng(5)
    lists = []
    for _ in range(3):
        cols = np.sort(rng.choice(ncols, 40, replace=False))
        cols = np.concatenate([cols, cols[-5:], [ncols - 1]])
        rows = rng.integers(0, nrows, len(cols))
        rows[-1] = nrows - 1
        keep = np.unique(np.c_[cols, rows], axis=0)
        vals = rng.normal(size=len(keep))
        lists.append(TripleList((nrows, ncols), keep[:, 0], keep[:, 1], vals))
    # Shared coordinates across lists, so sums happen.
    lists.append(TripleList(
        (nrows, ncols), lists[0].cols[:10], lists[0].rows[:10],
        -np.ones(10),
    ))
    got = merge_lists(lists)
    assert got.rows.dtype == got.indptr.dtype == _c.INDEX_DTYPE
    pairs = list(zip(got.cols.tolist(), got.rows.tolist(), got.vals.tolist()))
    assert sorted(((c, r), v) for c, r, v in pairs) == _python_sum(lists)


class TestModeledSizes:
    def test_csc_memory_bytes_is_the_model(self):
        empty = CSCMatrix.empty((3, 9))
        for mat in (random_csc((40, 30), 0.1, seed=1), empty):
            assert mat.indices.dtype == _c.INDEX_DTYPE
            assert mat.memory_bytes() == 8 * (mat.ncols + 1) + 16 * mat.nnz

    def test_dcsc_memory_bytes_is_the_model(self):
        mat = random_csc((60, 90), 0.01, seed=2)
        d = DCSCMatrix.from_csc(mat)
        assert 0 < d.nzc < mat.ncols
        assert d.memory_bytes() == 8 * (2 * d.nzc + 1) + 16 * d.nnz
        # What int64 arrays would occupy, as HipMCL holds them.
        wide = sum(
            a.astype(np.int64).nbytes for a in (d.jc, d.cp, d.ir)
        ) + d.num.nbytes
        assert d.memory_bytes() == wide

    def test_dcsc_bytes_are_the_broadcast_payload(self):
        dist = DistributedCSC.from_global(
            random_csc((50, 50), 0.05, seed=3), ProcessGrid(3)
        )
        for i in range(3):
            for j in range(3):
                assert (
                    dist.to_dcsc_block(i, j).memory_bytes()
                    == dist.block_storage_bytes(i, j)
                )


def test_graph_fingerprint_is_stable():
    # The digest of the int64 form: keys written before the index width
    # changed still hit the result cache.
    m = csc_from_triples(
        (4, 3), [0, 3, 1, 2, 0], [0, 0, 1, 2, 2], [1.0, 0.5, 2.0, 0.25, 4.0]
    )
    assert graph_fingerprint(m) == (
        "8f7c692bedf11e8214453c6ad7e8c76c837fd9a2ddda62ea327ac1790cefb75c"
    )


class TestInflationSharesThePattern:
    def test_scale_columns(self):
        mat = random_csc((30, 20), 0.2, seed=4)
        before = mat.copy()
        out = mat.scale_columns(np.arange(1.0, 21.0))
        assert np.shares_memory(out.indptr, mat.indptr)
        assert np.shares_memory(out.indices, mat.indices)
        assert not np.shares_memory(out.data, mat.data)
        assert mat.same_pattern_and_values(before)
        assert np.array_equal(mat.data, before.data)

    def test_hadamard_power(self):
        mat = random_csc((30, 20), 0.2, seed=5)
        before = mat.copy()
        out = hadamard_power(mat, 2.0)
        assert np.shares_memory(out.indptr, mat.indptr)
        assert np.shares_memory(out.indices, mat.indices)
        assert np.array_equal(out.data, mat.data**2)
        assert np.array_equal(mat.data, before.data)
        assert np.array_equal(mat.indices, before.indices)
