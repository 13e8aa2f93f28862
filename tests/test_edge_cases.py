"""Gap-filler tests for less-traveled branches across modules."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import CSCMatrix, random_csc


class TestCommEdges:
    def test_allreduce_negative_bytes(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.allreduce([0, 1], -1)

    def test_alltoall_negative_bytes(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.alltoall([0, 1], -1)

    def test_singleton_collectives_are_free(self):
        comm = VirtualComm(1, SUMMIT_LIKE)
        comm.broadcast([0], 10**6)
        comm.allreduce([0], 10**6)
        comm.alltoall([0], 10**6)
        assert comm.elapsed() == 0.0

    def test_traffic_totals(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        comm.broadcast([0, 1], 100)
        comm.allreduce([0, 1, 2], 50)
        comm.alltoall([0, 1], 10)
        t = comm.traffic
        assert t.bytes_total == (
            t.bytes_broadcast + t.bytes_reduced + t.bytes_exchanged
        )
        assert t.collective_calls == 3


class TestGridEdges:
    def test_single_process_grid(self):
        g = ProcessGrid(1)
        assert g.col_members(0) == [0]
        assert g.block_bounds(7, 0) == (0, 7)

    def test_extent_smaller_than_grid(self):
        g = ProcessGrid(4)
        # 2 elements over 4 blocks: two blocks get one, two get none.
        sizes = [b - a for a, b in (g.block_bounds(2, i) for i in range(4))]
        assert sizes == [1, 1, 0, 0]

class TestEngineEdges:
    def test_forced_gpu_kernel_without_gpu_falls_back(self):
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        a = random_csc((40, 40), 0.15, seed=61)
        da = DistributedCSC.from_global(a, ProcessGrid(2))
        comm = VirtualComm(4, SUMMIT_LIKE)
        cfg = SummaConfig(kernel="nsparse", use_gpu=False)
        res = summa_multiply(da, da, comm, cfg)
        assert np.allclose(
            res.dist_c.to_global().to_dense(),
            a.to_dense() @ a.to_dense(),
        )
        assert set(res.kernel_selections) <= {"cpu-hash", "cpu-heap"}

    def test_empty_matrix_distributed_multiply(self):
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        a = CSCMatrix.empty((16, 16))
        da = DistributedCSC.from_global(a, ProcessGrid(4))
        comm = VirtualComm(16, SUMMIT_LIKE)
        res = summa_multiply(da, da, comm, SummaConfig())
        assert res.dist_c.nnz == 0
        assert res.stage_flops == 0

    def test_phases_exceeding_columns_still_correct(self):
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        a = random_csc((20, 20), 0.2, seed=62)
        da = DistributedCSC.from_global(a, ProcessGrid(2))
        comm = VirtualComm(4, SUMMIT_LIKE)
        res = summa_multiply(da, da, comm, SummaConfig(), phases=50)
        assert np.allclose(
            res.dist_c.to_global().to_dense(),
            a.to_dense() @ a.to_dense(),
        )


class TestHipMCLEdges:
    def test_single_node_run(self):
        from repro.mcl import MclOptions
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        net = planted_network(80, intra_degree=8, inter_degree=0.5, seed=63)
        res = hipmcl(
            net.matrix, MclOptions(select_number=10),
            HipMCLConfig.optimized(nodes=1),
        )
        assert res.converged
        assert res.elapsed_seconds > 0

    def test_max_iterations_respected(self):
        from repro.mcl import MclOptions
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        net = planted_network(80, intra_degree=8, inter_degree=0.5, seed=64)
        res = hipmcl(
            net.matrix, MclOptions(select_number=10, max_iterations=2),
            HipMCLConfig.optimized(nodes=4),
        )
        assert res.iterations == 2 and not res.converged

    def test_recovery_path_through_driver(self):
        """recover_number > 0 forces the centralized prune fallback."""
        from repro.mcl import MclOptions, markov_cluster
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        from helpers import labels_equivalent

        net = planted_network(100, intra_degree=9, inter_degree=0.5, seed=65)
        opts = MclOptions(select_number=12, recover_number=3)
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=4))
        assert labels_equivalent(res.labels, ref.labels)

    def test_selection_disabled_runs(self):
        from repro.mcl import MclOptions
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        net = planted_network(60, intra_degree=6, inter_degree=0.5, seed=66)
        res = hipmcl(
            net.matrix,
            MclOptions(select_number=0, max_iterations=30),
            HipMCLConfig.optimized(nodes=4),
        )
        assert len(res.labels) == 60


class TestPruneEdges:
    def test_all_below_threshold(self):
        from repro.mcl import MclOptions, prune_columns

        mat = CSCMatrix.from_dense([[1e-9, 1e-8], [1e-9, 1e-8]])
        out, stats = prune_columns(mat, MclOptions(prune_threshold=1e-4))
        assert out.nnz == 0 and stats.cutoff_dropped == 4

    def test_threshold_zero_keeps_everything(self):
        from repro.mcl import MclOptions, prune_columns

        mat = random_csc((20, 20), 0.3, seed=67)
        out, _ = prune_columns(
            mat, MclOptions(prune_threshold=0.0, select_number=0)
        )
        assert out.nnz == mat.nnz
