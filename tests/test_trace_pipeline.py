"""Pipeline-level acceptance for the observability layer.

Two contracts, end to end.  First, tracing is *passive*: a traced run
must be bit-identical to the untraced serial reference at every worker
count — same labels, same simulated seconds, same per-iteration
trajectory, same kernel selections.  Second, tracing is *faithful*: the
recorded spans nest correctly on both clocks, and worker lanes appear
when the thread pool runs.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network
from repro.resilience import FaultPlan, divergence
from repro.trace import (
    MAIN_LANE,
    NULL_SPAN,
    Tracer,
    chrome_trace_events,
    current_tracer,
    maybe_span,
)

ROOT = Path(__file__).resolve().parents[1]

#: Worker counts: inline, and the thread pool at two workers.
WORKERS = (1, 2)
#: Cell ids name the executor each count runs and keep the ``-sync``
#: suffix they carried next to the retired wall-clock overlap axis, so
#: the ids stay stable.
CELL_IDS = ["serial-sync", "thread-sync"]

CHAOS_SEED = 7


@pytest.fixture(scope="module")
def net():
    # The multi-phase regime on a 4x4 grid (same construction as
    # test_backend_matrix's "phased" net): four SUMMA stages per phase,
    # so the thread pool really fans column batches out.
    mat = planted_network(120, intra_degree=10.0, inter_degree=1.5, seed=5)
    cfg = HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024)
    return mat.matrix, cfg


@pytest.fixture(scope="module")
def opts():
    return MclOptions(select_number=20)


@pytest.fixture(scope="module")
def reference(net, opts):
    """The untraced serial run every traced cell must reproduce."""
    mat, cfg = net
    return hipmcl(mat, opts, cfg, workers=1)


@pytest.fixture(scope="module")
def traced(net, opts):
    """One traced run per matrix cell: {workers: (res, tracer)}."""
    mat, cfg = net
    out = {}
    for workers in WORKERS:
        tracer = Tracer()
        res = hipmcl(mat, opts, cfg, workers=workers, trace=tracer)
        out[workers] = (res, tracer)
    return out


def assert_spans_nest(spans):
    by_id = {s.id: s for s in spans}
    for s in spans:
        assert s.t1_wall >= s.t0_wall
        if s.t0_sim is not None and s.t1_sim is not None:
            assert s.t1_sim >= s.t0_sim
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.t0_wall <= s.t0_wall and s.t1_wall <= p.t1_wall
            if None not in (s.t0_sim, s.t1_sim, p.t0_sim, p.t1_sim):
                assert p.t0_sim <= s.t0_sim and s.t1_sim <= p.t1_sim


@pytest.mark.parametrize("workers", WORKERS, ids=CELL_IDS)
class TestTracedMatrix:
    def test_bit_identical_to_untraced(self, net, opts, reference, traced,
                                       workers):
        run, _ = traced[workers]
        assert np.array_equal(run.labels, reference.labels)
        assert run.elapsed_seconds == reference.elapsed_seconds
        assert run.kernel_selections == reference.kernel_selections
        assert run.converged == reference.converged
        assert divergence(reference, run) == []

    def test_spans_cover_the_iteration_loop(self, traced, workers):
        run, tracer = traced[workers]
        assert len(tracer.find("hipmcl")) == 1
        for name in ("estimate", "expansion", "inflation", "prune"):
            assert tracer.find(name, iteration=1), name  # iterations are 1-based
        assert len(tracer.find("expansion")) == len(run.history)
        # SUMMA internals under the expansion: per-phase/stage spans.
        assert tracer.find("broadcast", phase=0, stage=0)
        assert tracer.find("merge", phase=0, stage=0)

    def test_dual_clocks_and_nesting(self, traced, workers):
        run, tracer = traced[workers]
        assert_spans_nest(tracer.spans)
        exp = tracer.find("expansion")[-1]
        assert exp.t0_sim is not None and exp.t1_sim is not None
        # The simulated clock in the trace is the run's own clock.
        assert exp.t1_sim <= run.elapsed_seconds

    def test_metrics_stream_records_iterations(self, traced, workers):
        run, tracer = traced[workers]
        nnz = [m for m in tracer.metrics if m.name == "iteration.nnz"]
        assert [m.value for m in nnz] == [h.nnz_pruned for h in run.history]
        assert nnz[0].attrs["chaos"] == run.history[0].chaos
        dispatches = [m for m in tracer.metrics
                      if m.name == "kernel_dispatch"]
        assert len(dispatches) > 0
        assert {"kernel", "cf", "nnz_c"} <= set(dispatches[0].attrs)
        assert dispatches[0].value > 0  # the dispatched multiply's flops
        bounds = [m for m in tracer.metrics if m.name == "estimator.bound"]
        assert len(bounds) == len(run.history)
        # Kernel counters agree with the result's own accounting.
        for kind, n in run.kernel_selections.items():
            if n:
                assert tracer.counters.get(f"kernel.{kind}") == n

    def test_worker_lanes(self, traced, workers):
        _, tracer = traced[workers]
        lanes = tracer.lanes()
        assert lanes[0] == MAIN_LANE
        if workers == 1:
            assert lanes == [MAIN_LANE]
        else:
            assert len(lanes) >= 2  # distinct worker lanes
            assert all(lane.startswith("worker-") for lane in lanes[1:])
        # The numeric pass is gathered before the pricing pass, so no
        # pool column task runs under a main-lane merge span.
        merges = [s for s in tracer.find("merge") if s.lane == MAIN_LANE]
        tasks = [
            s for s in tracer.find("compute_column") if s.lane != MAIN_LANE
        ]
        assert bool(tasks) == (workers > 1)
        for t in tasks:
            assert not any(
                t.t0_wall < m.t1_wall and m.t0_wall < t.t1_wall
                for m in merges
            )


class TestWorkerLaneExport:
    def test_chrome_export_draws_worker_lanes(self, traced):
        _, tracer = traced[2]
        events = chrome_trace_events(tracer)
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        }
        workers = {n for n in thread_names if n.startswith("worker-")}
        assert MAIN_LANE in thread_names
        assert len(workers) >= 1


class TestChaosTraced:
    def test_fault_injection_identity_and_events(self, net, opts):
        mat, cfg = net
        plan = FaultPlan.chaos(CHAOS_SEED, intensity=0.3)
        ref = hipmcl(mat, opts, cfg, workers=1, faults=plan)
        tracer = Tracer()
        run = hipmcl(
            mat, opts, cfg, workers=2, faults=plan, trace=tracer,
        )
        assert run.faults_injected == ref.faults_injected
        assert sum(run.faults_injected.values()) > 0
        assert np.array_equal(run.labels, ref.labels)
        assert run.elapsed_seconds == ref.elapsed_seconds
        # Injected faults leave instants on the resilience category.
        assert any(s.cat == "resilience" for s in tracer.spans)


# ---------------------------------------------------------------------------
# Tracing off must cost nothing measurable
# ---------------------------------------------------------------------------


@pytest.mark.wallclock
def test_disabled_tracing_overhead():
    """Instrumentation with no active tracer costs nothing measurable.

    The disabled path is one module-global read plus a cached no-op
    singleton; referenced from ``_NullSpan``'s docstring as the thing
    that keeps instrumented hot loops inside the noise floor.
    """
    assert current_tracer() is None
    assert maybe_span("probe", "cat", k=1) is NULL_SPAN  # cached, not built

    # The per-call cost of a disabled maybe_span is sub-microsecond.
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        with maybe_span("hot", "loop", stage=0):
            pass
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 2e-6, f"disabled span costs {per_call * 1e9:.0f}ns"


def test_run_trace_cli_runs_the_3d_hybrid_static_configuration():
    # The CLI's --grid/--transport reach HipMCLConfig: the printed
    # simulated seconds are those of a direct run of the same config.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "run_trace.py"), "archaea-xs",
         "--budget", "65536", "--schedule", "static", "--grid", "3d",
         "--transport", "hybrid"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    from repro.nets import catalog

    entry = catalog.entry("archaea-xs")
    res = hipmcl(
        entry.generate(seed=0).matrix, entry.options(),
        HipMCLConfig.optimized(
            nodes=16, schedule="static", grid="3d", transport="hybrid",
            memory_budget_bytes=65536,
        ),
    )
    assert f"{res.elapsed_seconds:.4f} simulated s" in proc.stdout
    assert f"3d grid: {res.layers} layers, hybrid transport" in proc.stdout
    assert sum(res.transport_selections.values()) > 0
