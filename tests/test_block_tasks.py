"""The numeric pass's unit of parallel work is one block column.

Every worker count runs the same :func:`compute_column` tasks (the
column's blocks, then its prune), so a phased static 3-D hybrid multiply
under fault injection must come out the same to the bit on the serial
executor and the thread pool at two and three workers (the caller
working as one of them): the product, every simulated figure, the trace
tuples and the kernel, merge-strategy and transport counters.
"""

import dataclasses
import gc
import importlib
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.summa.engine as engine
from repro.machine import SUMMIT_LIKE
from repro.mcl.distributed_prune import distributed_prune_block_column
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.mpi import ProcessGrid, VirtualComm
from repro.nets import planted_network, rmat_network
from repro.parallel import get_executor
from repro.resilience import FaultPlan, divergence
from repro.resilience.faults import FaultInjector
from repro.summa import DistributedCSC, SummaConfig, summa_multiply
from repro.summa.engine3d import Grid3DModel

#: Thread-pool worker counts compared against the serial executor.
CELLS = [2, 3]

CHAOS = FaultPlan.chaos(7, intensity=0.3)
PRUNE = MclOptions(select_number=5)


@pytest.fixture(scope="module")
def dist():
    return DistributedCSC.from_global(
        rmat_network(6, 6, seed=5).matrix, ProcessGrid(4)
    )


def _prune(cols, j):
    # Reads only its arguments: pool threads run it for different
    # columns at once.
    return distributed_prune_block_column(cols, PRUNE)


def _multiply(dist, executor, phases):
    grid = dist.grid
    config = SummaConfig(
        spec=dataclasses.replace(SUMMIT_LIKE, gpu_min_flops=50.0),
        schedule="static",
        trace=True,
    )
    comm = VirtualComm(grid.size, config.spec)
    injector = FaultInjector(CHAOS)
    charges = []

    def charge(j, nnz, width):
        charges.append((j, list(nnz), width))

    res = summa_multiply(
        dist, dist, comm, config, phases=phases, injector=injector,
        merge_injector=injector, charge_column_prune=charge,
        prune_column=_prune, executor=executor,
        model=Grid3DModel(4, 4, "hybrid"),
    )
    return {
        "fields": {
            f.name: getattr(res, f.name)
            for f in dataclasses.fields(res) if f.name != "dist_c"
        },
        "product": [
            (key, blk.indptr.tobytes(), blk.indices.tobytes(),
             blk.data.tobytes())
            for key, blk in sorted(res.dist_c.blocks.items())
        ],
        "clocks": [
            (r.free_at, r.idle, r.first_start, dict(r.busy))
            for c in comm.clocks for r in (c.cpu, c.gpu)
        ],
        "elapsed": comm.elapsed(),
        "charges": charges,
        "injected": injector.counts(),
    }


@pytest.mark.parametrize("phases", [1, 3])
def test_engine_cells_bit_identical(dist, phases, monkeypatch):
    short = []
    columns_of = engine._PhaseSplit.columns_of

    def counted(self, product, p):
        short.append(p)
        return columns_of(self, product, p)

    monkeypatch.setattr(engine._PhaseSplit, "columns_of", counted)
    ref = _multiply(dist, get_executor(1), phases)
    # The input reaches what it is meant to: faults, traces, a product,
    # the p2p transport, and (phased) the short-phase path.
    assert sum(ref["injected"].values()) > 0
    assert ref["fields"]["trace"]
    assert ref["fields"]["transport_selections"]["p2p"] > 0
    assert sum(ref["fields"]["merge_strategy_selections"].values()) > 0
    assert any(len(blk[2]) for blk in ref["product"])
    assert bool(short) == (phases > 1)
    for workers in CELLS:
        run = _multiply(dist, get_executor(workers), phases)
        assert run == ref, workers


def test_oversubscribed_threads_under_fast_switching(dist):
    # More threads than cores, a thread switch every microsecond and a
    # live tracer: the product and every figure stay the serial ones,
    # and no column task's span is lost.
    from repro.trace import Tracer, activate

    ref = _multiply(dist, get_executor(1), 3)
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with activate(tracer):
            run = _multiply(dist, get_executor(4), 3)
    finally:
        sys.setswitchinterval(interval)
    assert run == ref
    tasks = tracer.find("compute_column")
    assert sorted(s.attrs["task"] for s in tasks) == [0, 1, 2, 3]  # q columns


def test_hipmcl_cells_bit_identical():
    mat = planted_network(
        200, intra_degree=16.0, inter_degree=2.0, seed=7
    ).matrix
    opts = MclOptions(select_number=20)
    cfg = HipMCLConfig.optimized(
        nodes=16, memory_budget_bytes=24 * 1024, schedule="static",
        grid="3d", transport="hybrid",
    )
    ref = hipmcl(mat, opts, cfg, workers=1, faults=CHAOS)
    assert sum(ref.faults_injected.values()) > 0
    assert max(h.phases for h in ref.history) > 1
    for workers in CELLS:
        run = hipmcl(mat, opts, cfg, workers=workers, faults=CHAOS)
        assert np.array_equal(run.labels, ref.labels)
        assert run.elapsed_seconds == ref.elapsed_seconds
        assert run.kernel_selections == ref.kernel_selections
        assert run.transport_selections == ref.transport_selections
        assert run.faults_injected == ref.faults_injected
        assert divergence(ref, run) == []


def test_shared_operand_caches_filled_before_the_batch():
    # Every column task reads A_ik and every block of column j reads
    # B_kj: the engine fills their lazy caches in the parent, so no two
    # tasks race to build them.
    a = DistributedCSC.from_global(
        rmat_network(6, 6, seed=5).matrix, ProcessGrid(4)
    )
    b = DistributedCSC.from_global(
        rmat_network(6, 6, seed=6).matrix, ProcessGrid(4)
    )
    operands = [*a.blocks.values(), *b.blocks.values()]
    assert all(blk._lens is None for blk in operands)
    seen = []

    class Probe:
        workers = 2

        def submit_batch(self, fn, tasks, label=None, attrs=None):
            for _j, block_tasks, _prune in tasks:
                for operands, *_rest in block_tasks:
                    for _k, a_ik, b_kj in operands:
                        seen.extend(
                            m._lens is not None and m._min is not None
                            for m in (a_ik, b_kj)
                        )
            return get_executor(1).submit_batch(fn, tasks, label, attrs)

    engine._numeric_pass(a, b, 1, "binary", None, None, Probe())
    assert seen and all(seen)


def _failing_prune(cols, j):
    if j in (1, 3):
        raise ValueError(f"prune failed in column {j}")
    return cols


@pytest.mark.parametrize(
    "workers", [1, *CELLS], ids=["serial-1", "thread-2", "thread-3"]
)
def test_first_prune_failure_in_column_order(dist, workers):
    # Columns 1 and 3 fail in their tasks: every cell raises column 1's
    # error, the one a serial loop over the columns meets first.
    comm = VirtualComm(dist.grid.size, SUMMIT_LIKE)
    with pytest.raises(ValueError, match="column 1$"):
        summa_multiply(
            dist, dist, comm, SummaConfig(), prune_column=_failing_prune,
            executor=get_executor(workers),
        )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_at_most_one_unpruned_column_per_worker(dist, workers, monkeypatch):
    # A column task prunes its blocks before it returns, so however many
    # columns a multiply has, no more than ``workers`` of them are ever
    # live unpruned (q blocks each).
    live, peak, lock = weakref.WeakSet(), [0], threading.Lock()
    compute_block = engine.compute_block

    def counted(*args):
        out = compute_block(*args)
        with lock:
            gc.collect()
            live.add(out[0])
            peak[0] = max(peak[0], len(live))
        return out

    monkeypatch.setattr(engine, "compute_block", counted)
    res = _multiply(dist, get_executor(workers), 1)
    q = dist.grid.q
    assert any(len(blk[2]) for blk in res["product"])
    assert q <= peak[0] <= workers * q < q * q


def test_hipmcl_recovery_cells_bit_identical(monkeypatch):
    # recover_number > 0 prunes each column by stacking it, pruning the
    # slab and splitting it back, inside the column task.
    hipmcl_mod = importlib.import_module("repro.mcl.hipmcl")
    mat = planted_network(
        160, intra_degree=12.0, inter_degree=2.0, seed=3
    ).matrix
    opts = MclOptions(prune_threshold=0.02, select_number=12, recover_number=8)
    cfg = HipMCLConfig.optimized(nodes=16, memory_budget_bytes=32 * 1024)
    recovered = []
    prune_columns = hipmcl_mod.prune_columns

    def spy(slab, options):
        out = prune_columns(slab, options)
        recovered.append(out[1].recovered)
        return out

    monkeypatch.setattr(hipmcl_mod, "prune_columns", spy)
    ref = hipmcl(mat, opts, cfg, workers=1)
    assert recovered and sum(recovered) > 0
    for workers in CELLS:
        run = hipmcl(mat, opts, cfg, workers=workers)
        assert run.history == ref.history, workers
        assert np.array_equal(run.labels, ref.labels)
        assert run.elapsed_seconds == ref.elapsed_seconds
