"""Property-based tests for the distributed layer: any grid, any phase
count, the distributed product equals the local one."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import csc_from_triples
from repro.summa import DistributedCSC, SummaConfig, summa_multiply

from helpers import assert_same_csc


@st.composite
def distributed_instances(draw):
    n = draw(st.integers(2, 24))
    q = draw(st.integers(1, 4))
    nnz = draw(st.integers(0, n * n))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=nnz, max_size=nnz,
        )
    )
    phases = draw(st.integers(1, 4))
    return csc_from_triples((n, n), rows, cols, vals), q, phases


@given(distributed_instances())
@settings(max_examples=40, deadline=None)
def test_distribution_roundtrip(instance):
    mat, q, _ = instance
    dist = DistributedCSC.from_global(mat, ProcessGrid(q))
    assert dist.validate_against(mat, tol=0)


@given(distributed_instances())
@settings(max_examples=25, deadline=None)
def test_summa_equals_local_square(instance):
    mat, q, phases = instance
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    res = summa_multiply(dist, dist, comm, SummaConfig(), phases=phases)
    expected = mat.to_dense() @ mat.to_dense()
    assert np.allclose(res.dist_c.to_global().to_dense(), expected, atol=1e-9)


@given(distributed_instances(), st.sampled_from(["multiway", "twoway", "binary"]))
@settings(max_examples=20, deadline=None)
def test_merge_schedule_invariance(instance, merge):
    mat, q, phases = instance
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    res = summa_multiply(
        dist, dist, comm, SummaConfig(merge=merge), phases=phases
    )
    expected = mat.to_dense() @ mat.to_dense()
    assert np.allclose(res.dist_c.to_global().to_dense(), expected, atol=1e-9)


@given(
    scale=st.integers(3, 5),
    edge_factor=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    q=st.sampled_from([2, 3, 4]),
    phases=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_thread_backend_bit_identical(scale, edge_factor, seed, q, phases):
    # Random R-MAT inputs through the column batches of the thread
    # pool: simulated clocks, kernel selections and the product
    # itself must equal the serial run exactly — not approximately.
    from repro.nets import rmat_network

    mat = rmat_network(scale, edge_factor, seed=seed).matrix
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)

    def run(**kw):
        comm = VirtualComm(grid.size, SUMMIT_LIKE)
        res = summa_multiply(
            dist, dist, comm, SummaConfig(), phases=phases, **kw
        )
        return res, [(c.cpu.free_at, c.gpu.free_at) for c in comm.clocks]

    ser, ser_clocks = run()
    par, par_clocks = run(workers=2)
    assert par_clocks == ser_clocks
    assert par.kernel_selections == ser.kernel_selections
    assert par.stage_flops == ser.stage_flops
    assert par.merge_operations == ser.merge_operations
    for key, blk in ser.dist_c.blocks.items():
        assert_same_csc(par.dist_c.blocks[key], blk)


@given(distributed_instances())
@settings(max_examples=20, deadline=None)
def test_clock_invariants(instance):
    mat, q, phases = instance
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    summa_multiply(dist, dist, comm, SummaConfig(), phases=phases)
    for clock in comm.clocks:
        assert clock.cpu.free_at >= 0 and clock.gpu.free_at >= 0
        assert clock.cpu.idle >= 0 and clock.gpu.idle >= 0
        assert clock.cpu.window_idle() >= -1e-12
        assert clock.gpu.window_idle() >= -1e-12
    assert comm.elapsed() >= max(c.cpu.busy_total() for c in comm.clocks) - 1e-12
