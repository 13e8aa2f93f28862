"""The backend-equivalence matrix pinning the execution layer's contract.

Every ``(backend, workers, overlap)`` combination must reproduce the
serial run bit-for-bit — labels, simulated seconds, per-iteration
trajectory, kernel selections — including under deterministic fault
injection and across checkpoint/resume.  The matrix runs two planted
networks: a tiny single-phase one and a larger one whose tight memory
budget forces multi-phase expansion on a 4×4 grid (the regime where the
stage-overlap scheduler actually pipelines).
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network
from repro.resilience import FaultPlan, divergence, latest_checkpoint

BACKENDS = ("serial", "thread", "process")
OVERLAPS = (False, True)
CELLS = [(be, ov) for be in BACKENDS for ov in OVERLAPS]
CELL_IDS = [f"{be}-{'overlap' if ov else 'sync'}" for be, ov in CELLS]

CHAOS_SEED = 7


def _nets():
    small = planted_network(
        80, intra_degree=8.0, inter_degree=1.0, seed=3
    )
    phased = planted_network(
        120, intra_degree=10.0, inter_degree=1.5, seed=5
    )
    dense = planted_network(
        200, intra_degree=16.0, inter_degree=2.0, seed=7
    )
    return {
        # Single-phase expansion on a 2x2 grid.
        "small": (small.matrix, HipMCLConfig(nodes=4)),
        # Tight budget -> phases > 1, on a 4x4 grid: four SUMMA stages
        # per phase, so the overlap scheduler genuinely pipelines.
        "phased": (
            phased.matrix,
            HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        ),
        # Static pipeline schedule on a dense-expansion net whose budget
        # admits the double-buffered window (2) *and* forces phases > 1,
        # so async broadcasts genuinely overlap the per-column prunes.
        # The reference is static-serial: the schedule knob changes
        # simulated time by design, and every cell must match it.
        "static": (
            dense.matrix,
            HipMCLConfig(
                nodes=16, memory_budget_bytes=24 * 1024, schedule="static"
            ),
        ),
    }


@pytest.fixture(scope="module")
def nets():
    return _nets()


@pytest.fixture(scope="module")
def opts():
    return MclOptions(select_number=20)


@pytest.fixture(scope="module")
def references(nets, opts):
    """Serial fault-free and chaos references, one pair per net."""
    refs = {}
    for name, (mat, cfg) in nets.items():
        refs[name] = {
            "plain": hipmcl(mat, opts, cfg, workers=1),
            "chaos": hipmcl(
                mat, opts, cfg, workers=1,
                faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
            ),
        }
    return refs


def assert_cell_identical(ref, run):
    assert np.array_equal(run.labels, ref.labels)
    assert run.elapsed_seconds == ref.elapsed_seconds
    assert run.kernel_selections == ref.kernel_selections
    assert run.converged == ref.converged
    assert run.merge_demotions == ref.merge_demotions
    # Static-schedule evidence is pure simulated accounting, so it must
    # be bit-identical across cells too (all zero under schedule="sync").
    assert run.bcast_overlap_seconds == ref.bcast_overlap_seconds
    assert run.prune_bcast_overlap_seconds == ref.prune_bcast_overlap_seconds
    assert run.link_busy_seconds == ref.link_busy_seconds
    assert divergence(ref, run) == []


@pytest.mark.parametrize("net_name", ["small", "phased", "static"])
@pytest.mark.parametrize(("backend", "overlap"), CELLS, ids=CELL_IDS)
class TestBackendMatrix:
    def test_fault_free(self, nets, opts, references, net_name, backend,
                        overlap):
        mat, cfg = nets[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap
        )
        assert_cell_identical(references[net_name]["plain"], run)

    def test_chaos(self, nets, opts, references, net_name, backend,
                   overlap):
        mat, cfg = nets[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap,
            faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
        )
        ref = references[net_name]["chaos"]
        assert run.faults_injected == ref.faults_injected
        assert sum(run.faults_injected.values()) > 0
        assert_cell_identical(ref, run)

    def test_checkpoint_resume(self, nets, opts, references, net_name,
                               backend, overlap, tmp_path):
        # A checkpoint written under this cell's backend resumes — under
        # the same cell — to the exact serial trajectory: the backend
        # leaves no trace in the persisted state.
        mat, cfg = nets[net_name]
        ref = references[net_name]["plain"]
        full = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap,
            checkpoint_dir=tmp_path,
        )
        assert full.checkpoints_written > 0
        assert_cell_identical(ref, full)
        resumed = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap,
            resume_from=latest_checkpoint(tmp_path),
        )
        assert resumed.resumed_from_iteration > 0
        assert np.array_equal(resumed.labels, ref.labels)
        assert divergence(ref, resumed) == []


#: Sampled (backend, overlap) cells for the grid axis — one per backend,
#: overlap armed where the scheduler genuinely engages.  The full product
#: is covered by TestBackendMatrix; the 3D model touches nothing the
#: backend layer sees, so a sample pins the cross-axis contract.
GRID_CELLS = [("serial", False), ("thread", True), ("process", False)]
GRID_CELL_IDS = [f"{be}-{'overlap' if ov else 'sync'}" for be, ov in GRID_CELLS]


@pytest.fixture(scope="module")
def nets3d(nets):
    """The same nets with the run's clocks modeled on the split-3D grid."""
    return {
        name: (mat, dataclasses.replace(cfg, grid="3d"))
        for name, (mat, cfg) in nets.items()
    }


@pytest.fixture(scope="module")
def references3d(nets3d, opts):
    """Serial 3D references.  Like ``schedule``, ``grid`` changes the
    simulated timings by design, so 3D cells compare against a 3D serial
    reference for full cell identity — and against the 2D reference for
    the numerics (labels + trajectory), which the grid must not touch."""
    refs = {}
    for name, (mat, cfg) in nets3d.items():
        refs[name] = {
            "plain": hipmcl(mat, opts, cfg, workers=1),
            "chaos": hipmcl(
                mat, opts, cfg, workers=1,
                faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
            ),
        }
    return refs


@pytest.mark.parametrize("net_name", ["small", "phased", "static"])
@pytest.mark.parametrize(("backend", "overlap"), GRID_CELLS,
                         ids=GRID_CELL_IDS)
class TestGridAxisMatrix:
    """The ``--grid`` axis of the execution matrix: every sampled
    (grid, backend, workers, overlap, schedule) cell must be bit-identical
    to the serial 3D reference in every pinned quantity, and bit-identical
    to the serial *2D* reference in labels and trajectory (the grid is a
    pure charge model — numerics never change)."""

    def test_fault_free(self, nets3d, opts, references, references3d,
                        net_name, backend, overlap):
        mat, cfg = nets3d[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap
        )
        assert_cell_identical(references3d[net_name]["plain"], run)
        ref2d = references[net_name]["plain"]
        assert np.array_equal(run.labels, ref2d.labels)
        assert divergence(ref2d, run) == []
        assert run.grid == "3d"
        assert run.layers >= 1

    def test_chaos(self, nets3d, opts, references, references3d, net_name,
                   backend, overlap):
        mat, cfg = nets3d[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend, overlap=overlap,
            faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
        )
        ref = references3d[net_name]["chaos"]
        assert run.faults_injected == ref.faults_injected
        assert sum(run.faults_injected.values()) > 0
        assert run.transport_selections == ref.transport_selections
        assert run.transport_demotions == ref.transport_demotions
        assert_cell_identical(ref, run)
        # Recovery never touches numerics: the chaos run's clustering is
        # the fault-free 2D one.
        ref2d = references[net_name]["plain"]
        assert np.array_equal(run.labels, ref2d.labels)
        assert divergence(ref2d, run) == []


def test_grid3d_checkpoint_resume(nets3d, opts, references, references3d,
                                  tmp_path):
    # grid="3d" enters the config fingerprint, so a 3D checkpoint resumes
    # a 3D run — to the exact 3D serial trajectory, under any backend,
    # with the 2D clustering.
    mat, cfg = nets3d["phased"]
    ref = references3d["phased"]["plain"]
    full = hipmcl(
        mat, opts, cfg, workers=2, backend="thread", overlap=True,
        checkpoint_dir=tmp_path,
    )
    assert full.checkpoints_written > 0
    assert_cell_identical(ref, full)
    resumed = hipmcl(
        mat, opts, cfg, workers=2, backend="thread", overlap=True,
        resume_from=latest_checkpoint(tmp_path),
    )
    assert resumed.resumed_from_iteration > 0
    assert np.array_equal(resumed.labels, ref.labels)
    assert divergence(ref, resumed) == []
    assert np.array_equal(resumed.labels, references["phased"]["plain"].labels)


def test_grid3d_checkpoint_not_interchangeable_with_2d(nets, nets3d, opts,
                                                       tmp_path):
    # The fingerprint rejects resuming a 2D checkpoint under grid="3d".
    from repro.errors import CheckpointError

    mat, cfg2 = nets["small"]
    _, cfg3 = nets3d["small"]
    hipmcl(mat, opts, cfg2, checkpoint_dir=tmp_path)
    with pytest.raises(CheckpointError):
        hipmcl(mat, opts, cfg3, resume_from=latest_checkpoint(tmp_path))


class TestOverlapEngaged:
    def test_phased_net_actually_prefetches(self, nets, opts):
        # Guard against the matrix silently testing a no-op: on the 4x4
        # grid the armed scheduler must really run with a window of 2
        # and prefetch stages.  Observed through the engine directly.
        from repro.machine import SUMMIT_LIKE
        from repro.mpi import ProcessGrid, VirtualComm
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        mat, _ = nets["phased"]
        grid = ProcessGrid(4)
        dist = DistributedCSC.from_global(mat, grid)
        comm = VirtualComm(grid.size, SUMMIT_LIKE)
        res = summa_multiply(
            dist, dist, comm, SummaConfig(), phases=2,
            workers=2, backend="thread", overlap=True,
        )
        assert res.overlap_window == 2
        assert res.prefetched_stages == 2 * 3  # (q - 1) per phase
        assert res.overlap_serial_seconds >= res.overlap_overlapped_seconds

    def test_budget_degrades_window(self, nets, opts):
        from repro.machine import SUMMIT_LIKE
        from repro.mpi import ProcessGrid, VirtualComm
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        mat, _ = nets["small"]
        grid = ProcessGrid(2)
        dist = DistributedCSC.from_global(mat, grid)
        comm = VirtualComm(grid.size, SUMMIT_LIKE)
        res = summa_multiply(
            dist, dist, comm, SummaConfig(), workers=2, backend="thread",
            overlap=True, overlap_budget_bytes=1,
        )
        assert res.overlap_window == 1  # no room: single-buffered
        assert res.prefetched_stages == 0


# ---------------------------------------------------------------------------
# Wall-clock acceptance (tier2; needs real cores)
# ---------------------------------------------------------------------------

USABLE_CORES = len(os.sched_getaffinity(0))


@pytest.mark.tier2_overlap
@pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"needs >= 4 usable cores, have {USABLE_CORES}",
)
class TestOverlapWallClock:
    def test_overlap_beats_synchronous_process_backend(self):
        # The transport-bound regime: the process backend's per-stage
        # export/attach round-trips serialize against the parent's merge
        # accounting unless the overlap scheduler hides them.
        import time

        from repro.nets import catalog
        from repro.bench.harness import load_network, options_for

        net = load_network("isom100-3-xs")
        opts = options_for("isom100-3-xs")
        entry = catalog.entry("isom100-3-xs")
        cfg = HipMCLConfig.optimized(
            nodes=16, memory_budget_bytes=entry.memory_budget_bytes
        )

        def best_of(n, **kw):
            hipmcl(net.matrix, opts, cfg, **kw)  # warmup
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                res = hipmcl(net.matrix, opts, cfg, **kw)
                best = min(best, time.perf_counter() - t0)
            return best, res

        sync_s, sync_res = best_of(3, workers=4, backend="process",
                                   overlap=False)
        over_s, over_res = best_of(3, workers=4, backend="process",
                                   overlap=True)
        assert np.array_equal(sync_res.labels, over_res.labels)
        ratio = sync_s / over_s
        assert ratio >= 1.2, (
            f"overlap speedup {ratio:.2f}x < 1.2x "
            f"(sync {sync_s:.3f}s, overlap {over_s:.3f}s)"
        )


@pytest.mark.tier2_overlap
class TestStaticScheduleAcceptance:
    """The static pipeline schedule against the wall-clock overlap mode
    on the tier2 perf graphs.  The overlap knob never moves simulated
    time, so its simulated makespan *is* the synchronous schedule's —
    the static schedule must do no worse on every graph, strictly
    better with evidence on at least one."""

    NETS = ("eukarya-xs", "isom100-3-xs")

    def test_static_makespan_beats_overlap_mode(self):
        from repro.bench.harness import load_network, options_for
        from repro.nets import catalog

        improved = 0
        for name in self.NETS:
            net = load_network(name)
            opts = options_for(name)
            entry = catalog.entry(name)
            kw = dict(nodes=16, memory_budget_bytes=entry.memory_budget_bytes)
            over = hipmcl(
                net.matrix, opts, HipMCLConfig.optimized(**kw),
                workers=2, backend="thread", overlap=True,
            )
            stat = hipmcl(
                net.matrix, opts,
                HipMCLConfig.optimized(schedule="static", **kw),
                workers=2, backend="thread", overlap=True,
            )
            assert np.array_equal(stat.labels, over.labels)
            assert divergence(over, stat) == []
            assert stat.elapsed_seconds <= over.elapsed_seconds
            if (
                stat.elapsed_seconds < over.elapsed_seconds
                and stat.bcast_overlap_seconds > 0.0
            ):
                improved += 1
        assert improved >= 1
