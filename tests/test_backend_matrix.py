"""The backend-equivalence matrix pinning the execution layer's contract.

Every ``(backend, workers)`` combination must reproduce the serial run
bit-for-bit — labels, simulated seconds, per-iteration trajectory,
kernel selections — including under deterministic fault injection and
across checkpoint/resume.  The matrix runs three planted networks: a tiny
single-phase one, a larger one whose tight memory budget forces
multi-phase expansion on a 4×4 grid, and a static-schedule one.
"""

import dataclasses

import numpy as np
import pytest

from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network
from repro.resilience import FaultPlan, divergence, latest_checkpoint

BACKENDS = ("serial", "thread", "process")
#: Cell ids keep the ``-sync`` suffix they carried next to the retired
#: wall-clock overlap axis, so the surviving ids stay stable.
CELL_IDS = [f"{be}-sync" for be in BACKENDS]

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
        # per phase.
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
@pytest.mark.parametrize("backend", BACKENDS, ids=CELL_IDS)
class TestBackendMatrix:
    def test_fault_free(self, nets, opts, references, net_name, backend):
        mat, cfg = nets[net_name]
        run = hipmcl(mat, opts, cfg, workers=2, backend=backend)
        assert_cell_identical(references[net_name]["plain"], run)

    def test_chaos(self, nets, opts, references, net_name, backend):
        mat, cfg = nets[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend,
            faults=FaultPlan.chaos(CHAOS_SEED, intensity=0.3),
        )
        ref = references[net_name]["chaos"]
        assert run.faults_injected == ref.faults_injected
        assert sum(run.faults_injected.values()) > 0
        assert_cell_identical(ref, run)

    def test_checkpoint_resume(self, nets, opts, references, net_name,
                               backend, tmp_path):
        # A checkpoint written under this cell's backend resumes — under
        # the same cell — to the exact serial trajectory: the backend
        # leaves no trace in the persisted state.
        mat, cfg = nets[net_name]
        ref = references[net_name]["plain"]
        full = hipmcl(
            mat, opts, cfg, workers=2, backend=backend,
            checkpoint_dir=tmp_path,
        )
        assert full.checkpoints_written > 0
        assert_cell_identical(ref, full)
        resumed = hipmcl(
            mat, opts, cfg, workers=2, backend=backend,
            resume_from=latest_checkpoint(tmp_path),
        )
        assert resumed.resumed_from_iteration > 0
        assert np.array_equal(resumed.labels, ref.labels)
        assert divergence(ref, resumed) == []


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
@pytest.mark.parametrize("backend", BACKENDS, ids=CELL_IDS)
class TestGridAxisMatrix:
    """The ``--grid`` axis of the execution matrix: every
    (grid, backend, workers, schedule) cell must be bit-identical
    to the serial 3D reference in every pinned quantity, and bit-identical
    to the serial *2D* reference in labels and trajectory (the grid is a
    pure charge model — numerics never change)."""

    def test_fault_free(self, nets3d, opts, references, references3d,
                        net_name, backend):
        mat, cfg = nets3d[net_name]
        run = hipmcl(mat, opts, cfg, workers=2, backend=backend)
        assert_cell_identical(references3d[net_name]["plain"], run)
        ref2d = references[net_name]["plain"]
        assert np.array_equal(run.labels, ref2d.labels)
        assert divergence(ref2d, run) == []
        assert run.grid == "3d"
        assert run.layers >= 1

    def test_chaos(self, nets3d, opts, references, references3d, net_name,
                   backend):
        mat, cfg = nets3d[net_name]
        run = hipmcl(
            mat, opts, cfg, workers=2, backend=backend,
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
        mat, opts, cfg, workers=2, backend="thread",
        checkpoint_dir=tmp_path,
    )
    assert full.checkpoints_written > 0
    assert_cell_identical(ref, full)
    resumed = hipmcl(
        mat, opts, cfg, workers=2, backend="thread",
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


class TestStaticScheduleAcceptance:
    """The static pipeline schedule against the synchronous one on
    eukarya-xs and isom100-3-xs: the static schedule must do no worse on
    every graph, strictly better with evidence on at least one."""

    NETS = ("eukarya-xs", "isom100-3-xs")

    def test_static_makespan_beats_sync_schedule(self):
        from repro.bench.harness import load_network, options_for
        from repro.nets import catalog

        improved = 0
        for name in self.NETS:
            net = load_network(name)
            opts = options_for(name)
            entry = catalog.entry(name)
            kw = dict(nodes=16, memory_budget_bytes=entry.memory_budget_bytes)
            sync = hipmcl(
                net.matrix, opts, HipMCLConfig.optimized(**kw), workers=1
            )
            stat = hipmcl(
                net.matrix, opts,
                HipMCLConfig.optimized(schedule="static", **kw), workers=1,
            )
            assert np.array_equal(stat.labels, sync.labels)
            assert divergence(sync, stat) == []
            assert stat.elapsed_seconds <= sync.elapsed_seconds
            if (
                stat.elapsed_seconds < sync.elapsed_seconds
                and stat.bcast_overlap_seconds > 0.0
            ):
                improved += 1
        assert improved >= 1
