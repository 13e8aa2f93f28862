"""The numeric pass's unit of parallel work is one block of a block column.

Every ``(backend, workers)`` cell runs the same :func:`compute_block`
tasks, so a phased static 3-D hybrid multiply under fault injection must
come out the same to the bit on the serial executor, the thread pool at
two and three workers (the caller working as one of them) and the
process pool: the product, every simulated figure, the trace tuples and
the kernel, merge-strategy and transport counters.
"""

import dataclasses
import sys

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

#: (backend, workers) cells compared against the serial executor.
CELLS = [("thread", 2), ("thread", 3), ("process", 2)]

CHAOS = FaultPlan.chaos(7, intensity=0.3)
PRUNE = MclOptions(select_number=5)


@pytest.fixture(scope="module")
def dist():
    return DistributedCSC.from_global(
        rmat_network(6, 6, seed=5).matrix, ProcessGrid(4)
    )


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

    def prune(cols, j):
        return distributed_prune_block_column(cols, PRUNE)

    res = summa_multiply(
        dist, dist, comm, config, phases=phases, injector=injector,
        charge_column_prune=charge, prune_column=prune, executor=executor,
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
    rows_of = engine._PhaseSplit.rows_of

    def counted(self, product, p):
        short.append(p)
        return rows_of(self, product, p)

    monkeypatch.setattr(engine._PhaseSplit, "rows_of", counted)
    ref = _multiply(dist, get_executor(1), phases)
    # The input reaches what it is meant to: faults, traces, a product,
    # the p2p transport, and (phased) the short-phase path.
    assert sum(ref["injected"].values()) > 0
    assert ref["fields"]["trace"]
    assert ref["fields"]["transport_selections"]["p2p"] > 0
    assert sum(ref["fields"]["merge_strategy_selections"].values()) > 0
    assert any(len(blk[2]) for blk in ref["product"])
    assert bool(short) == (phases > 1)
    for backend, workers in CELLS:
        run = _multiply(dist, get_executor(workers, backend), phases)
        assert run == ref, (backend, workers)


def test_oversubscribed_threads_under_fast_switching(dist):
    # More threads than cores, a thread switch every microsecond and a
    # live tracer: the product and every figure stay the serial ones,
    # and no block task's span is lost.
    from repro.trace import Tracer, activate

    ref = _multiply(dist, get_executor(1), 3)
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with activate(tracer):
            run = _multiply(dist, get_executor(4, "thread"), 3)
    finally:
        sys.setswitchinterval(interval)
    assert run == ref
    assert len(tracer.find("compute_block")) == 16  # q² blocks


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
    for backend, workers in CELLS:
        run = hipmcl(
            mat, opts, cfg, workers=workers, backend=backend, faults=CHAOS
        )
        assert np.array_equal(run.labels, ref.labels)
        assert run.elapsed_seconds == ref.elapsed_seconds
        assert run.kernel_selections == ref.kernel_selections
        assert run.transport_selections == ref.transport_selections
        assert run.faults_injected == ref.faults_injected
        assert divergence(ref, run) == []


def test_shared_operand_caches_filled_before_the_batch():
    # The q tasks of a column all read B_kj: the engine fills its lazy
    # caches in the parent, so no two tasks race to build them.
    dist = DistributedCSC.from_global(
        rmat_network(6, 6, seed=5).matrix, ProcessGrid(4)
    )
    assert all(blk._lens is None for blk in dist.blocks.values())
    seen = []

    class Probe:
        workers = 2

        def submit_batch(self, fn, tasks, label=None, attrs=None):
            for operands, *_rest in tasks:
                for _k, _a, b in operands:
                    seen.append(b._lens is not None and b._min is not None)
            return get_executor(1).submit_batch(fn, tasks, label, attrs)

    engine._numeric_pass(dist, dist, 1, "binary", None, None, Probe())
    assert seen and all(seen)
