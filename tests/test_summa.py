"""Tests for the distributed matrix and the SUMMA engine."""

import numpy as np
import pytest

from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import CSCMatrix, csc_from_triples, random_csc
from repro.summa import (
    DistributedCSC,
    PhasePlan,
    SummaConfig,
    plan_phases,
    summa_multiply,
)


@pytest.fixture
def dist_pair():
    a = random_csc((120, 120), 0.06, seed=21)
    b = random_csc((120, 120), 0.06, seed=22)
    grid = ProcessGrid.for_processes(16)
    return (
        DistributedCSC.from_global(a, grid),
        DistributedCSC.from_global(b, grid),
        a.to_dense() @ b.to_dense(),
    )


class TestDistributedCSC:
    def test_scatter_gather_roundtrip(self):
        mat = random_csc((50, 70), 0.1, seed=9)
        d = DistributedCSC.from_global(mat, ProcessGrid(3))
        assert d.to_global().same_pattern_and_values(mat)

    def test_nnz_preserved(self):
        mat = random_csc((40, 40), 0.1, seed=10)
        d = DistributedCSC.from_global(mat, ProcessGrid(4))
        assert d.nnz == mat.nnz

    def test_block_shapes(self):
        mat = random_csc((10, 10), 0.3, seed=11)
        d = DistributedCSC.from_global(mat, ProcessGrid(4))
        # 10 = 3+3+2+2 near-even split
        assert d.block(0, 0).shape == (3, 3)
        assert d.block(3, 3).shape == (2, 2)

    def test_storage_bytes_hypersparse_aware(self):
        mat = random_csc((100, 100), 0.005, seed=12)
        d = DistributedCSC.from_global(mat, ProcessGrid(5))
        for i in range(5):
            for j in range(5):
                blk = d.block(i, j)
                nzc = int((blk.column_lengths() > 0).sum())
                assert d.block_storage_bytes(i, j) == 16 * blk.nnz + 16 * nzc + 8

    def test_dcsc_block_matches(self):
        mat = random_csc((30, 30), 0.1, seed=13)
        d = DistributedCSC.from_global(mat, ProcessGrid(2))
        blk = d.to_dcsc_block(1, 0)
        assert np.allclose(blk.to_dense(), d.block(1, 0).to_dense())

MODES = [
    # (pipelined, use_gpu, kernel, merge) — original, optimized, mixes
    (False, False, "heap", "multiway"),
    (False, False, "hash", "multiway"),
    (True, True, "hybrid", "binary"),
    (True, True, "nsparse", "binary"),
    (True, True, "hybrid", "twoway"),
    (False, True, "rmerge2", "multiway"),
]


class TestEngineCorrectness:
    @pytest.mark.parametrize("pipelined,gpu,kernel,merge", MODES)
    def test_product_correct_all_modes(
        self, dist_pair, pipelined, gpu, kernel, merge
    ):
        da, db, expected = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)
        cfg = SummaConfig(
            pipelined=pipelined, use_gpu=gpu, kernel=kernel, merge=merge
        )
        res = summa_multiply(da, db, comm, cfg)
        assert np.allclose(res.dist_c.to_global().to_dense(), expected)

    @pytest.mark.parametrize("phases", [1, 2, 3, 5])
    def test_phased_equals_unphased(self, dist_pair, phases):
        da, db, expected = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)
        res = summa_multiply(da, db, comm, SummaConfig(), phases=phases)
        assert np.allclose(res.dist_c.to_global().to_dense(), expected)
        assert res.phases == phases

    def test_phase_split_leaves_the_product_bit_identical(self):
        # 16x16 on a 4x4 grid: C[0, 0] sums three stage products, k = 0,
        # 2, 3, and B block (1, 0) holds only column 3, so its phase-0
        # slab is empty whenever there are two or more phases.  Phasing
        # the numerics pushed three products there instead of four and
        # regrouped the binary merge: (0.2 + 0.1) + 0.3 instead of
        # (0.3 + 0.2) + 0.1, a last-bit difference.
        a = csc_from_triples(
            (16, 16), np.zeros(4, dtype=np.int64), np.array([0, 4, 8, 12]),
            np.ones(4),
        )
        b = csc_from_triples(
            (16, 16), np.array([0, 8, 12, 4]), np.array([0, 0, 0, 3]),
            np.array([0.1, 0.2, 0.3, 0.5]),
        )
        grid = ProcessGrid(4)
        da = DistributedCSC.from_global(a, grid)
        db = DistributedCSC.from_global(b, grid)
        assert db.block(1, 0).nnz == 1
        products = [
            summa_multiply(
                da, db, VirtualComm(16, SUMMIT_LIKE), SummaConfig(),
                phases=phases,
            ).dist_c.to_global()
            for phases in (1, 2, 4)
        ]
        for c in products:
            assert np.array_equal(c.indptr, products[0].indptr)
            assert np.array_equal(c.indices, products[0].indices)
            assert c.data.tobytes() == products[0].data.tobytes()
        assert products[0].to_dense()[0, 0] == (0.3 + 0.2) + 0.1

    def test_grid_one_works(self):
        a = random_csc((20, 20), 0.2, seed=31)
        grid = ProcessGrid(1)
        da = DistributedCSC.from_global(a, grid)
        comm = VirtualComm(1, SUMMIT_LIKE)
        res = summa_multiply(da, da, comm, SummaConfig())
        assert np.allclose(
            res.dist_c.to_global().to_dense(), a.to_dense() @ a.to_dense()
        )

    def test_prune_column_can_filter(self, dist_pair):
        da, db, _ = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)

        def drop_everything(cols, j):
            return [CSCMatrix.empty(blk.shape) for blk in cols]

        res = summa_multiply(
            da, db, comm, SummaConfig(), phases=2,
            prune_column=drop_everything,
        )
        assert res.dist_c.nnz == 0

    def test_mismatched_grids_rejected(self):
        a = random_csc((20, 20), 0.2, seed=32)
        da = DistributedCSC.from_global(a, ProcessGrid(2))
        db = DistributedCSC.from_global(a, ProcessGrid(3))
        comm = VirtualComm(4, SUMMIT_LIKE)
        with pytest.raises(ValueError):
            summa_multiply(da, db, comm, SummaConfig())

    def test_bad_phase_count(self, dist_pair):
        da, db, _ = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)
        with pytest.raises(ValueError):
            summa_multiply(da, db, comm, SummaConfig(), phases=0)


class TestEngineAccounting:
    def test_time_advances_and_flops_counted(self, dist_pair):
        da, db, _ = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)
        res = summa_multiply(da, db, comm, SummaConfig())
        assert comm.elapsed() > 0
        assert res.stage_flops > 0
        assert sum(res.kernel_selections.values()) > 0

    def test_pipelined_not_slower_than_synchronous(self, dist_pair):
        da, db, _ = dist_pair
        times = {}
        for pipe in (False, True):
            comm = VirtualComm(16, SUMMIT_LIKE)
            summa_multiply(
                da, db, comm,
                SummaConfig(pipelined=pipe, use_gpu=True, kernel="nsparse"),
            )
            times[pipe] = comm.elapsed()
        assert times[True] <= times[False] * 1.0001

    def test_merge_memory_tracked(self, dist_pair):
        da, db, _ = dist_pair
        comm = VirtualComm(16, SUMMIT_LIKE)
        res = summa_multiply(da, db, comm, SummaConfig(merge="multiway"))
        assert res.merge_peak_resident_elements >= res.dist_c.nnz // 16

    def test_binary_merge_peak_not_above_multiway(self, dist_pair):
        da, db, _ = dist_pair
        peaks = {}
        for merge in ("multiway", "binary"):
            comm = VirtualComm(16, SUMMIT_LIKE)
            res = summa_multiply(da, db, comm, SummaConfig(merge=merge))
            peaks[merge] = res.merge_peak_event_elements
        assert peaks["binary"] <= peaks["multiway"]

    def test_gpu_oom_falls_back_to_cpu(self, dist_pair):
        da, db, expected = dist_pair
        spec = SUMMIT_LIKE.with_overrides(gpu_memory_bytes=128)
        comm = VirtualComm(16, spec)
        cfg = SummaConfig(
            spec=spec, kernel="nsparse", use_gpu=True, gpus_per_process=1
        )
        res = summa_multiply(da, db, comm, cfg)
        assert res.gpu_fallbacks > 0
        assert np.allclose(res.dist_c.to_global().to_dense(), expected)

    def test_bad_kernel_name(self):
        with pytest.raises(ValueError):
            SummaConfig(kernel="magic")

    def test_bad_merge_name(self):
        with pytest.raises(ValueError):
            SummaConfig(merge="quantum")


class TestPhasePlanner:
    def test_single_phase_when_fits(self):
        plan = plan_phases(1000, 4, budget_bytes=10**9)
        assert plan.phases == 1

    def test_phase_count_scales_with_estimate(self):
        small = plan_phases(10**6, 4, budget_bytes=10**6).phases
        large = plan_phases(4 * 10**6, 4, budget_bytes=10**6).phases
        assert large > small

    def test_safety_factor_adds_phases(self):
        base = plan_phases(10**6, 4, budget_bytes=6 * 10**6).phases
        safe = plan_phases(
            10**6, 4, budget_bytes=6 * 10**6, safety_factor=3.0
        ).phases
        assert safe >= base

    def test_max_phases_cap(self):
        plan = plan_phases(10**12, 1, budget_bytes=1024, max_phases=64)
        assert plan.phases == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_phases(-1, 4, 100)
        with pytest.raises(ValueError):
            plan_phases(1, 0, 100)
        with pytest.raises(ValueError):
            plan_phases(1, 1, 0)
        with pytest.raises(ValueError):
            plan_phases(1, 1, 100, safety_factor=0.5)

    def test_plan_is_dataclass_with_fields(self):
        plan = plan_phases(100, 2, 10**6)
        assert isinstance(plan, PhasePlan)
        assert plan.budget_bytes == 10**6


class TestOverlapBudgeting:
    def test_no_budget_grants_full_window(self):
        from repro.summa.phases import MAX_OVERLAP_WINDOW, overlap_window

        assert overlap_window(10**6, None) == MAX_OVERLAP_WINDOW
        assert overlap_window(0, 10**6) == MAX_OVERLAP_WINDOW

    def test_window_shrinks_with_budget(self):
        from repro.summa.phases import overlap_window

        assert overlap_window(1000, 2000) == 2
        assert overlap_window(1000, 1999) == 1
        assert overlap_window(1000, 10) == 1  # never below 1
        assert overlap_window(1, 10**9) == 2  # double buffering at most
