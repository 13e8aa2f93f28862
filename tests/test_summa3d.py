"""Tests for the split-3-D grid model (§VII-E's future work) under the
one engine, and the driver's first-class ``grid="3d"`` choice."""

import dataclasses

import numpy as np
import pytest

from repro.errors import GridError
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import random_csc
from repro.summa import (
    DistributedCSC,
    Grid3DModel,
    SummaConfig,
    summa_multiply,
)

from helpers import assert_same_csc


@pytest.fixture
def operands():
    a = random_csc((150, 150), 0.06, seed=41)
    b = random_csc((150, 150), 0.06, seed=42)
    return a, b, a.to_dense() @ b.to_dense()


def _multiply(a, b, procs, model=None, comm=None):
    grid = ProcessGrid.for_processes(procs)
    comm = comm or VirtualComm(procs, SUMMIT_LIKE)
    res = summa_multiply(
        DistributedCSC.from_global(a, grid),
        DistributedCSC.from_global(b, grid),
        comm, SummaConfig(), model=model,
    )
    return res, comm


class TestCorrectness:
    @pytest.mark.parametrize("layers,procs", [(1, 16), (4, 64), (4, 16)])
    def test_matches_dense(self, operands, layers, procs):
        a, b, expected = operands
        q = ProcessGrid.for_processes(procs).q
        res, _ = _multiply(a, b, procs, Grid3DModel(q, layers))
        assert np.allclose(
            res.dist_c.to_global().to_dense(), expected, atol=1e-9
        )

    def test_single_layer_equals_2d(self, operands):
        a, b, _ = operands
        ref, ref_comm = _multiply(a, b, 16)
        res, comm = _multiply(a, b, 16, Grid3DModel(4, 1, "broadcast"))
        for key, blk in ref.dist_c.blocks.items():
            assert_same_csc(res.dist_c.blocks[key], blk)
        assert comm.account_means() == ref_comm.account_means()
        assert "redistribution" not in comm.account_means()

    def test_rectangular(self):
        a = random_csc((60, 90), 0.1, seed=43)
        b = random_csc((90, 40), 0.1, seed=44)
        res, _ = _multiply(a, b, 9, Grid3DModel(3, 9))  # 9 layers of 1x1
        assert np.allclose(
            res.dist_c.to_global().to_dense(),
            a.to_dense() @ b.to_dense(), atol=1e-9,
        )

    def test_empty_product(self):
        from repro.sparse import CSCMatrix

        a = CSCMatrix.empty((20, 20))
        res, _ = _multiply(a, a, 16, Grid3DModel(4, 4))
        assert res.dist_c.to_global().nnz == 0


class TestValidation:
    def test_bad_layer_split(self):
        with pytest.raises(GridError):
            Grid3DModel(4, 3)

    def test_shape_mismatch(self):
        a = random_csc((5, 6), 0.5, seed=1)
        b = random_csc((5, 6), 0.5, seed=2)
        with pytest.raises(ValueError, match="inner dimension"):
            _multiply(a, b, 4, Grid3DModel(2, 4))


class TestAccountingClaims:
    def test_redistribution_charged(self, operands):
        a, b, _ = operands
        _, comm = _multiply(a, b, 64, Grid3DModel(8, 4))
        assert comm.account_means()["redistribution"] > 0
        _, comm1 = _multiply(a, b, 64, Grid3DModel(8, 1))
        assert "redistribution" not in comm1.account_means()

    def test_3d_reduces_broadcast_time(self):
        """§VII-E measured: on the same process count, 3-D spends less
        time in SUMMA broadcasts than 2-D (fewer, smaller-group trees)."""
        a = random_csc((240, 240), 0.05, seed=45)
        _, comm2d = _multiply(a, a, 64)
        _, comm3d = _multiply(a, a, 64, Grid3DModel(8, 4, "broadcast"))
        assert (comm3d.account_means()["summa_bcast"]
                < comm2d.account_means()["summa_bcast"])


class TestHipMCLGrid3D:
    """The promoted ``grid="3d"`` knob through the full MCL driver."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        mat = planted_network(
            120, intra_degree=10.0, inter_degree=1.5, seed=5
        ).matrix
        cfg2d = HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024)
        cfg3d = dataclasses.replace(cfg2d, grid="3d")
        return {
            "2d": hipmcl(mat, config=cfg2d),
            "3d": hipmcl(mat, config=cfg3d),
            "3d-bcast": hipmcl(
                mat,
                config=dataclasses.replace(cfg3d, transport="broadcast"),
            ),
        }

    def test_labels_and_trajectory_match_2d(self, runs):
        from repro.resilience import divergence

        r2, r3 = runs["2d"], runs["3d"]
        assert np.array_equal(r2.labels, r3.labels)
        assert divergence(r2, r3) == []
        assert r3.grid == "3d" and r3.layers == 4
        assert r2.grid == "2d" and r2.layers == 1

    def test_3d_reduces_driver_broadcast_seconds(self, runs):
        # The engine-level claim above, surviving the full driver: fewer,
        # smaller-group trees spend less simulated time per rank in the
        # SUMMA broadcast bucket (p2p sends fold into the same bucket).
        assert (runs["3d"].stage_means["summa_bcast"]
                < runs["2d"].stage_means["summa_bcast"])

    def test_hybrid_transport_no_worse_than_broadcast_only(self, runs):
        hybrid, bcast = runs["3d"], runs["3d-bcast"]
        assert np.array_equal(hybrid.labels, bcast.labels)
        assert (hybrid.stage_means["summa_bcast"]
                <= bcast.stage_means["summa_bcast"])
        assert hybrid.transport_selections.get("p2p", 0) > 0
        assert bcast.transport_selections == {
            "broadcast": sum(hybrid.transport_selections.values())
        }

    def test_transport_accounting_surfaced(self, runs):
        r3 = runs["3d"]
        assert sum(r3.transport_selections.values()) > 0
        assert r3.transport_demotions == 0
        assert runs["2d"].transport_selections == {}
