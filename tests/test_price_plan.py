"""The multiply's pricing from counts against per-product oracles.

``summa_multiply`` prices every stage product from integer counts over
B's blocks and the products' full-width arrays (``_PricePlan``): no B
phase slab is built, and the kernel pick and the six-device GPU price are
one vectorised pass per multiply.  The oracles here materialise every
phase slab and price each product the way the engine did per product:
``kernel_for_work``, ``_gpu_stage_time`` on the slab (which also charges
the devices), ``heap_operation_count`` / ``hash_operation_count``.

The per-product path is still the engine's whenever a fault injector is
attached, so a whole multiply run with an injector that never fires must
be indistinguishable from the injector-free run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.summa.engine as engine
from repro.errors import DeviceMemoryError
from repro.gpu.device import GPUDevice
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.nets import rmat_network
from repro.parallel import get_executor
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sparse import csc_from_triples
from repro.spgemm.hashspgemm import hash_operation_count
from repro.spgemm.heap import heap_operation_count
from repro.spgemm.hybrid import KernelKind, kernel_for_work
from repro.spgemm.metrics import flops_per_column
from repro.summa import (
    DistributedCSC, Grid3DModel, SummaConfig, summa_multiply,
)


@st.composite
def operands(draw):
    """Two operands on a q×q grid whose B blocks often keep a phase slab
    empty while the block itself is not."""
    q = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = q * draw(st.integers(1, 7)) + int(rng.integers(0, q))
    density = draw(st.floats(0.05, 0.7))
    mats = []
    for _ in range(2):
        rows, cols = np.nonzero(rng.random((n, n)) < density)
        mats.append((rows, cols, rng.random(len(rows)) + 0.01))
    rows, cols, vals = mats[1]
    grid = ProcessGrid(q)
    block_row = np.searchsorted(
        [grid.block_bounds(n, k)[1] for k in range(q)], rows, side="right"
    )
    keep = ~(rng.random((q, n)) < 0.3)[block_row, cols]
    mats[1] = (rows[keep], cols[keep], vals[keep])
    a, b = (
        DistributedCSC.from_global(csc_from_triples((n, n), r, c, v), grid)
        for r, c, v in mats
    )
    return a, b


def device_set(grid, capacities):
    return {
        r: [
            GPUDevice(SUMMIT_LIKE, index=d, capacity_bytes=cap)
            for d, cap in enumerate(capacities)
        ]
        for r in range(grid.size)
    }


@given(
    operands(),
    st.integers(1, 6),
    st.lists(
        st.sampled_from([200, 600, 2000, 10**9]), min_size=1, max_size=8
    ),
    st.sampled_from(["hybrid", "nsparse", "rmerge2", "bhsparse"]),
    st.sampled_from([0.0, 40.0, SUMMIT_LIKE.gpu_min_flops]),
)
@settings(max_examples=120, deadline=None)
def test_array_prices_match_per_product_oracle(
    case, phases, capacities, kernel, gpu_min_flops
):
    dist_a, dist_b = case
    grid = dist_a.grid
    q = grid.q
    spec = dataclasses.replace(SUMMIT_LIKE, gpu_min_flops=gpu_min_flops)
    config = SummaConfig(spec=spec, kernel=kernel, merge="binary")
    model = Grid3DModel(q, 1, "hybrid")
    _kept, products, _blocks = engine._numeric_pass(
        dist_a, dist_b, phases, "binary", None, None, get_executor(1)
    )
    devices = device_set(grid, capacities)
    plan = engine._PricePlan(
        dist_a, dist_b, products, phases, config, model, devices, None
    )
    # The devices the per-product path charges, one product at a time.
    replay = device_set(grid, capacities)
    policy = spec.selection_policy()
    for j in range(q):
        w = dist_b.block(0, j).ncols
        for p in range(phases):
            lo, hi = engine._phase_bounds(w, phases)[p : p + 2]
            for k in range(q):
                slab = dist_b.block(k, j).column_slab(lo, hi)
                nzc = int(np.count_nonzero(slab.column_lengths()))
                assert plan.bcast_bytes[p][k][j] == (
                    16 * slab.nnz + 16 * nzc + 8
                )
                assert np.array_equal(
                    plan.row_counts(k, p)[j],
                    np.bincount(slab.indices, minlength=slab.nrows),
                )
                for i in range(q):
                    a = dist_a.block(i, k)
                    record = plan.records[p].get((k, i, j))
                    if not (a.nnz and slab.nnz):
                        assert record is None
                        continue
                    c_nnz, flops, cf, kind, gpu, _events, _m = record
                    c = engine.spgemm_esc(a, slab)
                    per_col = flops_per_column(a, slab)
                    assert type(c_nnz) is int and c_nnz == c.nnz
                    assert type(flops) is int and flops == per_col.sum()
                    assert cf == (flops / c_nnz if c_nnz > 0 else 1.0)
                    if kernel == "hybrid":
                        assert kind is kernel_for_work(
                            flops, cf, gpu_available=True, policy=policy
                        )
                    else:
                        assert kind is engine._KERNEL_NAMES[kernel]
                    assert plan.cpu_ops(
                        KernelKind.CPU_HEAP, record, p
                    ) == heap_operation_count(a, slab, per_col)
                    assert plan.cpu_ops(
                        KernelKind.CPU_HASH, record, p
                    ) == hash_operation_count(a, slab, c.nnz, flops)
                    if not kind.on_gpu:
                        assert gpu is None
                        continue
                    rank = model.stage_ranks(k)[i][j]
                    try:
                        want = engine._gpu_stage_time(
                            spec, kind, a.memory_bytes(), slab.indptr,
                            c.indptr, replay[rank], per_col,
                        )
                    except DeviceMemoryError:
                        # A share does not fit: the engine takes the
                        # per-product path, which fails the same way.
                        assert gpu is None
                        with pytest.raises(DeviceMemoryError):
                            plan.gpu_time(kind, record, p, devices[rank])
                        continue
                    assert gpu == want
                    assert type(gpu[1]) is int and type(gpu[2]) is int
    # Charged in bulk, the device counters end where the per-product
    # charges leave them.
    for r in range(grid.size):
        for got, want in zip(devices[r], replay[r]):
            assert got.peak_bytes == want.peak_bytes
            assert got.kernel_launches == want.kernel_launches


def _run(dist, config, phases, model, injector, capacities):
    from repro.trace import Tracer, activate

    grid = dist.grid
    comm = VirtualComm(grid.size, config.spec)
    # The devices the engine would build (None: the spec's capacity),
    # held here so their counters can be compared.
    devices = {
        r: [
            GPUDevice(
                config.spec, index=d, capacity_bytes=cap, injector=injector
            )
            for d, cap in enumerate(capacities)
        ]
        for r in range(grid.size)
    }
    charges = []

    def charge(j, nnz, width):
        charges.append((j, list(nnz), width))
        for rank in grid.col_members(j):
            cpu = comm.clocks[rank].cpu
            cpu.schedule(cpu.free_at, 1e-6 * sum(nnz), "prune")

    tracer = Tracer()
    with activate(tracer):
        res = summa_multiply(
            dist, dist, comm, config, phases=phases, devices=devices,
            injector=injector, charge_column_prune=charge, model=model,
        )
    return {
        "fields": {
            f.name: getattr(res, f.name)
            for f in dataclasses.fields(res) if f.name != "dist_c"
        },
        "product": [
            (blk.indptr.tobytes(), blk.indices.tobytes(), blk.data.tobytes())
            for _key, blk in sorted(res.dist_c.blocks.items())
        ],
        "clocks": [
            (r.free_at, r.idle, r.first_start, dict(r.busy))
            for c in comm.clocks for r in (c.cpu, c.gpu)
        ],
        "devices": [
            (d.peak_bytes, d.kernel_launches)
            for r in sorted(devices) for d in devices[r]
        ],
        "charges": charges,
        "metrics": [
            (m.name, m.value, type(m.value), m.t_sim, m.attrs)
            for m in tracer.metrics
        ],
    }


SIX = [None] * 6
CASES = [
    # 2-D sync on six devices of the spec's capacity.
    ("sync", 1, None, SIX, [1]),
    # 3-D static hybrid transport, phases 1-5.
    ("static", 4, "hybrid", SIX, [1, 2, 3, 4, 5]),
    # A capacity-limited device: some shares take the per-product path
    # and fall back to the CPU even without an injector.
    ("static", 4, "hybrid", [10**9, 1500, 10**9], [1, 3]),
]


def test_never_firing_injector_takes_the_per_product_path_identically():
    dist = DistributedCSC.from_global(
        rmat_network(6, 6, seed=5).matrix, ProcessGrid(4)
    )
    spec = dataclasses.replace(SUMMIT_LIKE, gpu_min_flops=50.0)
    for schedule, layers, transport, capacities, phase_list in CASES:
        config = SummaConfig(spec=spec, schedule=schedule, trace=True)
        for phases in phase_list:
            runs = [
                _run(
                    dist, config, phases, Grid3DModel(4, layers, transport),
                    injector, capacities,
                )
                for injector in (None, FaultInjector(FaultPlan()))
            ]
            assert runs[0] == runs[1], (schedule, layers, phases)
            kinds = runs[0]["fields"]["kernel_selections"]
            assert any(k in kinds for k in ("nsparse", "rmerge2"))
            assert any(launches for _peak, launches in runs[0]["devices"])
            if capacities is not SIX:
                assert runs[0]["fields"]["gpu_fallbacks"] > 0
