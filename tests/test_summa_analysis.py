"""Tests for the 2-D vs 3-D communication analysis."""

import pytest

from repro.errors import GridError
from repro.machine import SUMMIT_LIKE
from repro.summa.analysis import (
    communication_2d,
    communication_3d,
    compare_decompositions,
)


class TestModel2D:
    def test_validated_against_engine(self):
        """The closed-form 2-D model must reproduce the broadcast seconds
        the engine actually charges (same α-β model underneath)."""
        from repro.mpi import ProcessGrid, VirtualComm
        from repro.sparse import random_csc
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        a = random_csc((300, 300), 0.05, seed=9)
        grid = ProcessGrid.for_processes(16)
        da = DistributedCSC.from_global(a, grid)
        comm = VirtualComm(16, SUMMIT_LIKE)
        summa_multiply(da, da, comm, SummaConfig())
        measured = comm.account_means()["summa_bcast"]
        model = communication_2d(a.nnz, a.nnz, 16).bcast_seconds
        assert model == pytest.approx(measured, rel=0.5)

    def test_phases_multiply_broadcasts(self):
        one = communication_2d(10**6, 10**6, 64, phases=1)
        four = communication_2d(10**6, 10**6, 64, phases=4)
        assert four.messages == 4 * one.messages
        assert four.bcast_seconds > one.bcast_seconds

    def test_non_square_rejected(self):
        with pytest.raises(GridError):
            communication_2d(100, 100, 12)

    def test_bad_phases(self):
        with pytest.raises(ValueError):
            communication_2d(100, 100, 4, phases=0)


class TestModel3D:
    def test_single_layer_matches_2d_bcast(self):
        two = communication_2d(10**6, 10**6, 64)
        three = communication_3d(10**6, 10**6, 10**6, 64, layers=1)
        assert three.bcast_seconds == pytest.approx(two.bcast_seconds)
        assert three.redistribution_seconds == 0.0

    def test_layers_cut_broadcast_time(self):
        """§VII-E's point: at large concurrencies the 3-D layout reduces
        the broadcast bottleneck."""
        two = communication_2d(10**7, 10**7, 1024)
        three = communication_3d(10**7, 10**7, 10**7, 1024, layers=4)
        assert three.bcast_seconds < two.bcast_seconds

    def test_bad_layer_split(self):
        with pytest.raises(GridError):
            communication_3d(100, 100, 100, 64, layers=3)
        with pytest.raises(GridError):
            communication_3d(100, 100, 100, 64, layers=2)  # 32 not square

    def test_bad_layers(self):
        with pytest.raises(ValueError):
            communication_3d(100, 100, 100, 64, layers=0)


class TestComparison:
    def test_redistribution_hurts_single_multiply(self):
        """§II's caveat: for sparse inputs the one-time redistribution is
        unlikely to be amortized by a single multiply."""
        out = compare_decompositions(
            5 * 10**5, 5 * 10**5, 1024, layers=4,
            multiplies_to_amortize=1,
        )
        assert out["3d_redistribution"] > 0
        assert out["bcast_reduction_factor"] > 1.0

    def test_amortization_helps(self):
        once = compare_decompositions(
            10**7, 10**7, 4096, layers=4, multiplies_to_amortize=1
        )
        many = compare_decompositions(
            10**7, 10**7, 4096, layers=4, multiplies_to_amortize=50
        )
        assert many["3d_amortized_total"] < once["3d_amortized_total"]

    def test_bad_amortization(self):
        with pytest.raises(ValueError):
            compare_decompositions(100, 100, 64, multiplies_to_amortize=0)
