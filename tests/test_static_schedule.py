"""The fully-static pipeline schedule: async broadcasts, the stage
channels, and the overlap evidence.

Three layers are pinned here:

* **comm** — :meth:`VirtualComm.broadcast_async` charges per-channel
  *link* clocks, leaves the rank CPU clocks alone, and completes at
  exactly the synchronous collective's interval when nothing else is on
  the wire (the window-1 degradation case);
* **engine** — ``schedule="static"`` reproduces the synchronous
  product bit-for-bit while finishing the simulated makespan earlier,
  degrades to the synchronous numbers when the byte budget has no room
  for double buffering, and reports nonzero overlap evidence when it
  genuinely pipelines;
* **hipmcl** — the evidence fields and simulated clocks are invariant
  across every worker count (the property test).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError
from repro.machine import SUMMIT_LIKE
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.mpi import ProcessGrid, VirtualComm
from repro.nets import planted_network
from repro.resilience import divergence
from repro.summa import DistributedCSC, SummaConfig, summa_multiply


class TestAsyncBroadcast:
    def test_completion_equals_synchronous_collective(self):
        # Window-1 equivalence: with an idle link and the members' CPU
        # frontier as the ready time, the async broadcast occupies
        # exactly the interval the blocking collective would.
        sync = VirtualComm(4, SUMMIT_LIKE)
        sync.clocks[0].cpu.schedule(0, 1.0, "head_start")
        res = sync.broadcast([0, 1, 2, 3], 4096)

        async_ = VirtualComm(4, SUMMIT_LIKE)
        async_.clocks[0].cpu.schedule(0, 1.0, "head_start")
        ready = max(async_.clocks[r].cpu.free_at for r in range(4))
        h = async_.broadcast_async(
            [0, 1, 2, 3], 4096, channel="row:0", ready_at=ready
        )
        assert (h.start, h.end) == (res.start, res.end)

    def test_charges_link_not_cpu(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        before = [c.cpu.free_at for c in comm.clocks]
        h = comm.broadcast_async([0, 1, 2, 3], 8192, channel="row:1")
        assert [c.cpu.free_at for c in comm.clocks] == before
        assert comm.link_busy_seconds() == pytest.approx(h.end - h.start)

    def test_same_channel_serializes(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        h1 = comm.broadcast_async([0, 1], 4096, channel="row:0")
        h2 = comm.broadcast_async([0, 1], 4096, channel="row:0")
        assert h2.start == h1.end

    def test_distinct_channels_run_concurrently(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        h1 = comm.broadcast_async([0, 1], 4096, channel="row:0")
        h2 = comm.broadcast_async([2, 3], 4096, channel="col:0")
        assert h1.start == h2.start == 0.0

    def test_counts_traffic(self):
        comm = VirtualComm(4, SUMMIT_LIKE)
        comm.broadcast_async([0, 1], 500, channel="row:0")
        assert comm.traffic.bytes_broadcast == 500
        assert comm.traffic.collective_calls == 1

    def test_validates_group(self):
        comm = VirtualComm(2, SUMMIT_LIKE)
        with pytest.raises(CommunicatorError):
            comm.broadcast_async([0, 5], 10, channel="row:0")

    def test_elapsed_excludes_draining_links(self):
        # Trailing in-flight broadcasts drain in the background, like
        # pending sends at finalize: the makespan is the rank clocks'.
        comm = VirtualComm(2, SUMMIT_LIKE)
        comm.broadcast_async([0, 1], 1 << 20, channel="row:0")
        assert comm.elapsed() == 0.0
        assert comm.link_busy_seconds() > 0.0


class TestStageGraph:
    """The static schedule walks stages as one flat sequence; the grid
    model names the links each stage's trees ride."""

    def test_channels_shared_across_stages(self):
        # Stage k+1's row-i / column-j trees ride the same links as stage
        # k's, so posted at the same gate they serialize behind them.
        from repro.summa import Grid3DModel

        rng = np.random.default_rng(3)
        from repro.sparse import CSCMatrix

        mat = CSCMatrix.from_dense((rng.random((12, 12)) < 0.3) * 1.0)
        dist = DistributedCSC.from_global(mat, ProcessGrid(2))
        model = Grid3DModel(2, 1, None)
        comm = VirtualComm(4, SUMMIT_LIKE)
        posted = []
        for k in range(2):
            nbytes = [dist.block_storage_bytes(k, j) for j in range(2)]
            # Broadcast-only delivery reads no row counts.
            posted.append(
                model.post_stage(
                    comm, k, 0, model.a_counts(dist, k), None, nbytes,
                    gate=0.0,
                )
            )
        for axis, name in ((0, "row"), (1, "col")):
            for idx in range(2):
                h0, h1 = posted[0][axis][idx], posted[1][axis][idx]
                assert h0.channel == h1.channel == f"{name}:{idx}"
                assert h1.start == h0.end


def _engine_pair(schedule, **kwargs):
    rng = np.random.default_rng(11)
    n = 96
    from repro.sparse import CSCMatrix

    dense = (rng.random((n, n)) < 0.15) * rng.random((n, n))
    mat = CSCMatrix.from_dense(dense)
    grid = ProcessGrid(4)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    res = summa_multiply(
        dist, dist, comm, SummaConfig(schedule=schedule), phases=2, **kwargs
    )
    return res, comm


class TestStaticEngine:
    def test_static_requires_pipelined(self):
        with pytest.raises(Exception):
            SummaConfig(schedule="static", pipelined=False)
        with pytest.raises(Exception):
            SummaConfig(schedule="nope")

    def test_same_product_faster_makespan(self):
        sync, sync_comm = _engine_pair("sync")
        stat, stat_comm = _engine_pair("static")
        a = sync.dist_c.to_global()
        b = stat.dist_c.to_global()
        assert np.array_equal(a.to_dense(), b.to_dense())
        assert stat.kernel_selections == sync.kernel_selections
        assert stat.pipeline_window == 2
        assert stat_comm.elapsed() < sync_comm.elapsed()

    def test_evidence_nonzero_when_pipelining(self):
        stat, comm = _engine_pair("static")
        assert stat.bcast_overlap_seconds > 0.0
        assert stat.link_busy_seconds > 0.0
        assert comm.link_busy_seconds() == pytest.approx(
            stat.link_busy_seconds
        )

    def test_tiny_budget_degrades_to_sync_numbers(self):
        sync, sync_comm = _engine_pair("sync")
        stat, stat_comm = _engine_pair("static", overlap_budget_bytes=1)
        assert stat.pipeline_window == 1
        assert stat_comm.elapsed() == sync_comm.elapsed()
        assert stat.bcast_overlap_seconds == 0.0
        assert stat.link_busy_seconds == 0.0


_OPTS = MclOptions(select_number=20)
#: Budget that admits the double-buffered window *and* forces phases > 1
#: on the dense-expansion net — the prune-overlap regime.
_STATIC_CFG = dict(nodes=16, memory_budget_bytes=24 * 1024)


@functools.lru_cache(maxsize=1)
def _dense_net():
    return planted_network(
        200, intra_degree=16.0, inter_degree=2.0, seed=7
    ).matrix


@functools.lru_cache(maxsize=1)
def _static_reference():
    return hipmcl(
        _dense_net(), _OPTS,
        HipMCLConfig(schedule="static", **_STATIC_CFG), workers=1,
    )


class TestStaticHipMCL:
    def test_identical_clustering_faster_makespan(self):
        sync = hipmcl(
            _dense_net(), _OPTS, HipMCLConfig(**_STATIC_CFG), workers=1
        )
        stat = _static_reference()
        assert divergence(sync, stat) == []
        assert stat.elapsed_seconds < sync.elapsed_seconds
        assert sync.bcast_overlap_seconds == 0.0
        assert sync.link_busy_seconds == 0.0

    def test_overlap_evidence_nonzero(self):
        stat = _static_reference()
        assert stat.bcast_overlap_seconds > 0.0
        assert stat.prune_bcast_overlap_seconds > 0.0
        assert stat.link_busy_seconds > 0.0


@settings(max_examples=8, deadline=None)
@given(workers=st.integers(min_value=1, max_value=3))
def test_link_seconds_invariant_across_cells(workers):
    """Charged link seconds (and all static evidence) are pure simulated
    accounting: no worker count may move them."""
    ref = _static_reference()
    run = hipmcl(
        _dense_net(), _OPTS,
        HipMCLConfig(schedule="static", **_STATIC_CFG),
        workers=workers,
    )
    assert run.link_busy_seconds == ref.link_busy_seconds
    assert run.bcast_overlap_seconds == ref.bcast_overlap_seconds
    assert run.prune_bcast_overlap_seconds == ref.prune_bcast_overlap_seconds
    assert run.elapsed_seconds == ref.elapsed_seconds
    assert divergence(ref, run) == []
