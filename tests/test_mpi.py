"""Tests for the process grid and the virtual communicator."""

import pytest

from repro.errors import CommunicatorError, GridError
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm, is_perfect_square


class TestGrid:
    def test_perfect_square_detection(self):
        assert is_perfect_square(1)
        assert is_perfect_square(1024)
        assert not is_perfect_square(2)
        assert not is_perfect_square(0)
        assert not is_perfect_square(-4)

    def test_for_processes(self):
        assert ProcessGrid.for_processes(16).q == 4

    def test_non_square_rejected(self):
        with pytest.raises(GridError):
            ProcessGrid.for_processes(12)

    def test_rank_coord_roundtrip(self):
        g = ProcessGrid(5)
        for r in range(g.size):
            assert g.rank_of(*divmod(r, g.q)) == r

    def test_rank_out_of_range(self):
        g = ProcessGrid(3)
        with pytest.raises(GridError):
            g.rank_of(3, 0)

    def test_row_col_members(self):
        g = ProcessGrid(3)
        assert [g.rank_of(1, j) for j in range(3)] == [3, 4, 5]
        assert g.col_members(2) == [2, 5, 8]

    def test_block_bounds_cover_dimension(self):
        g = ProcessGrid(4)
        n = 10
        bounds = [g.block_bounds(n, i) for i in range(4)]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and b > a

    def test_block_bounds_near_even(self):
        g = ProcessGrid(4)
        sizes = [b - a for a, b in (g.block_bounds(10, i) for i in range(4))]
        assert max(sizes) - min(sizes) <= 1

class TestVirtualComm:
    def test_broadcast_synchronizes_group(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 1.0, "head_start")
        res = comm.broadcast([0, 1, 2, 3], 1000)
        assert res.start == 1.0
        for r in range(4):
            assert comm.clocks[r].cpu.free_at == res.end
        assert res.end > 1.0

    def test_broadcast_counts_traffic(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        comm.broadcast([0, 1], 500)
        assert comm.traffic.bytes_broadcast == 500
        assert comm.traffic.collective_calls == 1

    def test_negative_bytes_rejected(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.broadcast([0, 1], -1)

    def test_bad_rank_rejected(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.broadcast([0, 5], 10)

    def test_empty_group_rejected(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.allreduce([], 8)

    def test_barrier_aligns_all(self):
        comm = VirtualComm(3, SUMMIT_LIKE)
        comm.clocks[2].cpu.schedule(0, 7.0, "slow")
        t = comm.barrier()
        assert t == 7.0
        assert all(c.now == 7.0 for c in comm.clocks)

    def test_elapsed_is_makespan(self):
        comm = VirtualComm(3, SUMMIT_LIKE)
        comm.clocks[1].cpu.schedule(0, 2.5, "x")
        assert comm.elapsed() == 2.5

    def test_account_means_and_maxima(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(0, 4.0, "work")
        assert comm.account_means()["work"] == 2.0

    def test_idle_times(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        comm.clocks[0].cpu.schedule(3.0, 1.0, "late")
        cpu_idle, gpu_idle = comm.idle_times()
        assert cpu_idle == 1.5 and gpu_idle == 0.0

    def test_nonpositive_size_rejected(self):
        with pytest.raises(CommunicatorError):
            VirtualComm(0, SUMMIT_LIKE)
