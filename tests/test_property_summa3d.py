"""Property-based tests for the split-3D grid: the charge model never
touches the numerics, only the clocks, and the replication byte
accounting follows the c-fold formula."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import csc_from_triples
from repro.summa import (
    DistributedCSC,
    Grid3DModel,
    SummaConfig,
    plan_phases,
    summa_multiply,
)

from helpers import assert_same_csc

#: Valid replication requests per grid side (c = r² with r | q).
LAYER_CHOICES = {2: [0, 1, 4], 4: [0, 1, 4, 16]}


@st.composite
def grid3d_instances(draw):
    n = draw(st.integers(4, 20))
    q = draw(st.sampled_from([2, 4]))
    layers = draw(st.sampled_from(LAYER_CHOICES[q]))
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
    phases = draw(st.integers(1, 3))
    return csc_from_triples((n, n), rows, cols, vals), q, layers, phases


def _run(mat, q, phases, *, model=None, **kw):
    grid = ProcessGrid(q)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    res = summa_multiply(
        dist, dist, comm, SummaConfig(), phases=phases, model=model, **kw
    )
    clocks = [(c.cpu.free_at, c.gpu.free_at) for c in comm.clocks]
    return res, clocks


def _assert_blocks_identical(ref, cand):
    assert set(ref.dist_c.blocks) == set(cand.dist_c.blocks)
    for key, blk in ref.dist_c.blocks.items():
        assert_same_csc(cand.dist_c.blocks[key], blk)


@given(grid3d_instances())
@settings(max_examples=20, deadline=None)
def test_grid3d_model_is_bit_identical_to_2d(instance):
    # The charge model redirects simulated time and traffic only: the
    # product blocks must match the plain 2-D run bit for bit, and both
    # must equal the dense product.
    mat, q, layers, phases = instance
    ref, _ = _run(mat, q, phases)
    model = Grid3DModel(q, layers)
    res, _ = _run(mat, q, phases, model=model)
    _assert_blocks_identical(ref, res)
    expected = mat.to_dense() @ mat.to_dense()
    assert np.allclose(res.dist_c.to_global().to_dense(), expected, atol=1e-9)


@given(grid3d_instances())
@settings(max_examples=15, deadline=None)
def test_transport_mode_changes_clocks_not_numerics(instance):
    # hybrid / broadcast / p2p may land different simulated seconds, but
    # the numeric path — and therefore the product — is pinned.
    mat, q, layers, phases = instance
    runs = {
        mode: _run(mat, q, phases, model=Grid3DModel(q, layers, mode))
        for mode in ("hybrid", "broadcast", "p2p")
    }
    ref, _ = runs["broadcast"]
    for mode in ("hybrid", "p2p"):
        res, _ = runs[mode]
        _assert_blocks_identical(ref, res)
        assert res.transport_demotions == 0
    # Every stage's q₃ B-groups went through the selector in each run,
    # and hybrid never loses to broadcast-only on the modeled network.
    model = Grid3DModel(q, layers)
    per_run = phases * q * model.q3
    for mode, (res, _) in runs.items():
        assert sum(res.transport_selections.values()) == per_run
    assert runs["broadcast"][0].transport_selections == {
        "broadcast": per_run
    }


@given(
    scale=st.integers(3, 5),
    edge_factor=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    pool=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_grid3d_model_pool_bit_identical(scale, edge_factor, seed, pool):
    # R-MAT inputs through the thread pool's stage batches with the 3D
    # model: still bit-identical to the plain serial 2-D run.
    from repro.nets import rmat_network

    mat = rmat_network(scale, edge_factor, seed=seed).matrix
    ref, _ = _run(mat, 4, 2)
    kw = {"workers": 2} if pool else {}
    res, _ = _run(mat, 4, 2, model=Grid3DModel(4, 4), **kw)
    _assert_blocks_identical(ref, res)


@given(
    nnz=st.integers(0, 10**9),
    procs=st.sampled_from([1, 4, 16, 64]),
    budget=st.integers(1, 2**40),
    c=st.sampled_from([1, 4, 9, 16]),
)
@settings(max_examples=50, deadline=None)
def test_replication_byte_accounting_is_c_fold(nnz, procs, budget, c):
    # The transient footprint before the fiber combine is c partial
    # triples per output element: the planner's per-process bytes must
    # scale exactly c-fold, and the phase count can only grow with c.
    base = plan_phases(nnz, procs, budget)
    repl = plan_phases(nnz, procs, budget, replication=c)
    assert math.isclose(
        repl.bytes_per_process, c * base.bytes_per_process, rel_tol=1e-12
    )
    assert repl.phases >= base.phases
