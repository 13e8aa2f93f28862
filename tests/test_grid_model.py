"""The 2-D grid is the one-layer grid model.

One charge path serves both grid shapes: ``summa_multiply(model=None)``
is ``Grid3DModel(q, 1)`` with broadcast-only delivery and no transport
counting, and ``grid="2d"`` in the driver is ``grid="3d", layers=1,
transport="broadcast"`` down to the simulated bit — except that the
2-D run reports no transport selections.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.machine import SUMMIT_LIKE
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mpi import ProcessGrid, VirtualComm
from repro.nets import planted_network, rmat_network
from repro.resilience import divergence
from repro.sparse import CSCMatrix, csc_from_triples
from repro.summa import DistributedCSC, Grid3DModel, SummaConfig, summa_multiply

DATA = Path(__file__).parent / "data"


def _engine_run(mat, q, schedule, model, **kw):
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    res = summa_multiply(
        dist, dist, comm, SummaConfig(schedule=schedule, trace=True),
        model=model, **kw,
    )
    return res, comm


class TestEngineCollapse:
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("schedule", ["sync", "static"])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_default_is_one_layer_broadcast_model(self, q, schedule, budget):
        mat = rmat_network(5, 4, seed=3).matrix
        ref, ref_comm = _engine_run(
            mat, q, schedule, None, phases=2, overlap_budget_bytes=budget
        )
        res, comm = _engine_run(
            mat, q, schedule, Grid3DModel(q, 1, "broadcast"),
            phases=2, overlap_budget_bytes=budget,
        )
        assert [(c.cpu.free_at, c.gpu.free_at) for c in comm.clocks] == [
            (c.cpu.free_at, c.gpu.free_at) for c in ref_comm.clocks
        ]
        assert comm.account_means() == ref_comm.account_means()
        assert comm.traffic == ref_comm.traffic
        assert res.link_busy_seconds == ref.link_busy_seconds
        assert res.bcast_overlap_seconds == ref.bcast_overlap_seconds
        assert res.trace == ref.trace
        assert ref.transport_selections == {}
        assert res.transport_selections == {
            "broadcast": 2 * q * q  # phases × stages × column groups
        }

    @pytest.mark.parametrize("schedule", ["sync", "static"])
    def test_2d_trace_matches_recorded(self, schedule):
        # Recorded from the engine before the 2-D grid's charges moved
        # into the model: same roots, kinds and intervals, in order.
        recorded = json.loads((DATA / "summa_trace_2d.json").read_text())
        res, _ = _engine_run(
            rmat_network(4, 4, seed=7).matrix, 2, schedule, None, phases=2
        )
        assert [list(t) for t in res.trace] == recorded[schedule]
        assert {t[3] for t in res.trace} >= {"bcast_A", "bcast_B"}

    def test_3d_trace_roots_at_owning_cells(self):
        mat = rmat_network(5, 4, seed=3).matrix
        model = Grid3DModel(4, 4, "broadcast")
        res, _ = _engine_run(mat, 4, "sync", model)
        a_rows = [t for t in res.trace if t[3] == "bcast_A"]
        b_cols = [t for t in res.trace if t[3] == "bcast_B"]
        # One tree per layer row / column per stage.
        assert len(a_rows) == len(b_cols) == 4 * model.q3
        for rank, _, k, *_ in a_rows:
            assert rank // (model.q3 ** 2) == model.stage_layer(k)
            assert rank % model.q3 == k // model.r
        for rank, _, k, *_ in b_cols:
            assert rank % (model.q3 ** 2) // model.q3 == k // model.r


@pytest.fixture(scope="module")
def planted():
    return planted_network(
        120, intra_degree=10.0, inter_degree=1.5, seed=5
    ).matrix


DRIVER_CONFIGS = {
    "sync": HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
    "static": HipMCLConfig(
        nodes=16, memory_budget_bytes=12 * 1024, schedule="static"
    ),
    "original": HipMCLConfig.original(nodes=16),
}


class TestDriverCollapse:
    @pytest.mark.parametrize("name", sorted(DRIVER_CONFIGS))
    def test_3d_one_layer_broadcast_equals_2d(self, planted, name):
        cfg = DRIVER_CONFIGS[name]
        r2 = hipmcl(planted, config=cfg)
        r3 = hipmcl(
            planted,
            config=dataclasses.replace(
                cfg, grid="3d", layers=1, transport="broadcast"
            ),
        )
        assert np.array_equal(r2.labels, r3.labels)
        assert divergence(r2, r3) == []
        for field in (
            "elapsed_seconds", "stage_means", "cpu_idle_seconds",
            "gpu_idle_seconds", "cpu_window_idle_seconds",
            "expansion_seconds", "bytes_communicated",
            "link_busy_seconds", "bcast_overlap_seconds",
            "prune_bcast_overlap_seconds", "peak_rank_resident_bytes",
        ):
            assert getattr(r2, field) == getattr(r3, field), field
        assert [h.stage_seconds for h in r2.history] == [
            h.stage_seconds for h in r3.history
        ]
        assert (r2.grid, r2.layers, r2.transport_selections) == ("2d", 1, {})
        assert r3.grid == "3d" and r3.layers == 1
        assert set(r3.transport_selections) == {"broadcast"}
        if name == "static":
            assert max(h.phases for h in r2.history) > 1
            assert r2.prune_bcast_overlap_seconds > 0


def _degenerate_inputs():
    return {
        "empty": (CSCMatrix.empty((0, 0)), []),
        "one-vertex": (CSCMatrix.empty((1, 1)), [0]),
        "isolated": (CSCMatrix.empty((10, 10)), list(range(10))),
        "self-loops": (
            csc_from_triples((5, 5), range(5), range(5), [1.0] * 5),
            list(range(5)),
        ),
        "n-below-q": (
            csc_from_triples((3, 3), [0, 1], [1, 0], [1.0, 1.0]),
            [0, 0, 1],
        ),
    }


@pytest.mark.parametrize("grid", ["2d", "3d"])
@pytest.mark.parametrize("schedule", ["sync", "static"])
@pytest.mark.parametrize("case", sorted(_degenerate_inputs()))
def test_degenerate_graphs_through_driver(grid, schedule, case):
    mat, expected = _degenerate_inputs()[case]
    cfg = HipMCLConfig(nodes=16, grid=grid, schedule=schedule)
    res = hipmcl(mat, config=cfg)
    assert res.labels.tolist() == expected


@pytest.mark.parametrize("q,layers", [(2, 1), (4, 1), (4, 4), (4, 16),
                                      (6, 9), (8, 4)])
def test_stage_cells_each_take_r_squared_products(q, layers):
    # Within a stage, cell_rank maps the q² products r² to a cell onto
    # the stage layer's q₃² cells, so it is injective only when c = 1: a
    # per-stage vectorised charge must group products by rank.
    model = Grid3DModel(q, layers)
    r, q3 = model.r, model.q3
    for k in range(q):
        lay = model.stage_layer(k)
        per_cell = Counter(
            model.cell_rank(i, j, k) for i in range(q) for j in range(q)
        )
        assert set(per_cell) == {
            model.cell(lay, I, J) for I in range(q3) for J in range(q3)
        }
        assert set(per_cell.values()) == {r * r}
        injective = len(per_cell) == q * q
        assert injective == (model.layers == 1)


class _RecordingModel(Grid3DModel):
    """Records each ``post_stage`` call's deduplicated handle list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.posted = []

    def post_stage(self, *args, **kwargs):
        out = super().post_stage(*args, **kwargs)
        self.posted.append(out[4])
        return out


@pytest.mark.parametrize("layers", [1, 4])
def test_prune_overlap_counts_each_tree_once(layers):
    # The per-column prune window intersects every transfer still in
    # flight — nodes (p+1)·q and (p+1)·q+1 of the static stage sequence —
    # once per tree.  Under c = 4 (r = 2) two block rows / columns share
    # one tree handle, which the per-row / per-column lists repeat.
    from repro.trace import Tracer, activate

    q, phases = 4, 3
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(rmat_network(5, 4, seed=3).matrix, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    model = _RecordingModel(q, layers, "broadcast")

    def charge(j, nnz, width):
        for rank in grid.col_members(j):
            cpu = comm.clocks[rank].cpu
            cpu.schedule(cpu.free_at, 1e-4, "prune")

    tracer = Tracer()
    with activate(tracer):
        res = summa_multiply(
            dist, dist, comm, SummaConfig(schedule="static"), phases=phases,
            charge_column_prune=charge, model=model,
        )
    assert res.pipeline_window == 2
    assert len(model.posted) == phases * q  # one post per node, in order
    expected = 0.0
    for span in tracer.find("prune.column"):
        p = span.attrs["phase"]
        for node in ((p + 1) * q, (p + 1) * q + 1):
            for h in model.posted[node] if node < phases * q else ():
                expected += max(
                    0.0, min(span.t1_sim, h.end) - max(span.t0_sim, h.start)
                )
    assert expected > 0.0
    assert res.prune_bcast_overlap_seconds == pytest.approx(expected)


@pytest.mark.parametrize("grid", ["2d", "3d"])
def test_link_overlap_report_prune_figure_is_the_runs(grid):
    # The trace summary's overlap figures count what the engine counts.
    # Prune: the later phases' transfers (broadcasts and p2p chains)
    # posted before each column's wrap-up window, each once; counting the
    # window's own phase, or broadcasts only, read about twice the run's
    # figure on the 3-D grid.  Compute: under each stage's merge span, the
    # transfers of that stage and the next one already posted; crossing
    # every transfer with every merge span read nearly all the link time.
    from repro.nets import catalog
    from repro.trace import Tracer, link_overlap_report

    entry = catalog.entry("eukarya-xs")
    config = HipMCLConfig.optimized(
        nodes=16, schedule="static", grid=grid, transport="hybrid",
        memory_budget_bytes=2**19,
    )
    tracer = Tracer()
    res = hipmcl(
        entry.generate(seed=0).matrix, entry.options(), config, trace=tracer
    )
    report = link_overlap_report(tracer)
    assert res.prune_bcast_overlap_seconds > 0.0
    assert report["prune_overlap_seconds"] == pytest.approx(
        res.prune_bcast_overlap_seconds, rel=1e-12
    )
    assert res.bcast_overlap_seconds > 0.0
    assert report["compute_overlap_seconds"] == pytest.approx(
        res.bcast_overlap_seconds, rel=1e-12
    )
    if grid == "3d":
        assert res.transport_selections["p2p"] > 0
