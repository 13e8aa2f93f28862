"""Delta-equivalence: a warm start must be indistinguishable from a
cold rerun on the patched graph, for every delta shape — localized,
scattered, empty, or big enough to dirty everything."""

import numpy as np
import pytest

from repro.locality import (
    GraphDelta,
    WarmStart,
    dirty_vertices,
    localized_delta,
    random_delta,
    run_warm_start,
)
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network

OPTS = MclOptions(select_number=20, max_iterations=60)
CFG = HipMCLConfig.optimized(nodes=16)


def _warm(matrix, base, delta, **kw):
    return hipmcl(
        matrix, OPTS, CFG,
        warm_start=WarmStart(np.asarray(base.labels, dtype=np.int64), delta),
        **kw,
    )


@pytest.fixture(scope="module")
def nets():
    return {
        # Pure islands: components are the planted clusters, the warm
        # start's best case.
        "islands": planted_network(
            300, intra_degree=10.0, inter_degree=0.0, seed=13
        ).matrix,
        # Weak inter-cluster edges: one big component, the warm start's
        # worst case (most deltas dirty everything -> cold fallback).
        "connected": planted_network(
            240, intra_degree=12.0, inter_degree=1.0, seed=17
        ).matrix,
    }


@pytest.mark.parametrize("net_name", ["islands", "connected"])
@pytest.mark.parametrize("fraction", [0.01, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_equals_cold_random_deltas(nets, net_name, fraction, seed):
    """Deltas up to 5% of the edges: warm-start labels are bit-identical
    to a cold run on the patched graph."""
    matrix = nets[net_name]
    base = hipmcl(matrix, OPTS, CFG)
    delta = random_delta(matrix, fraction, seed)
    cold = hipmcl(delta.apply(matrix), OPTS, CFG)
    warm = _warm(matrix, base, delta)
    assert np.array_equal(warm.labels, cold.labels)
    assert warm.n_clusters == cold.n_clusters


@pytest.mark.parametrize("seed", [3, 4])
def test_warm_equals_cold_localized_deltas(nets, seed):
    matrix = nets["islands"]
    base = hipmcl(matrix, OPTS, CFG)
    delta = localized_delta(matrix, 8, seed)
    patched = delta.apply(matrix)
    dirty = dirty_vertices(patched, delta)
    # The point of a localized delta: most of the graph stays clean.
    assert len(dirty) < matrix.ncols // 2
    cold = hipmcl(patched, OPTS, CFG)
    warm = _warm(matrix, base, delta)
    assert np.array_equal(warm.labels, cold.labels)
    # The warm run's history covers only the dirty sub-problem.
    assert warm.iterations <= cold.iterations + len(base.history)


def test_empty_delta_returns_base_labels(nets):
    from repro.mcl.components import canonical_labels

    matrix = nets["islands"]
    base = hipmcl(matrix, OPTS, CFG)
    delta = GraphDelta.from_edges(matrix.ncols, [], [])
    warm = _warm(matrix, base, delta)
    assert warm.iterations == 0
    assert warm.converged
    assert np.array_equal(
        warm.labels, canonical_labels(np.asarray(base.labels))
    )


def test_everything_dirty_falls_back_to_cold_run(nets):
    """A delta chaining every component together dirties the whole
    graph; the warm start must degrade to the cold answer, not stitch."""
    matrix = nets["islands"]
    base = hipmcl(matrix, OPTS, CFG)
    from repro.mcl.components import connected_components

    comp = connected_components(matrix)
    # One representative vertex per component, chained in a path.
    reps = np.array(
        [np.flatnonzero(comp == c)[0] for c in range(comp.max() + 1)]
    )
    add = [
        (int(reps[i]), int(reps[i + 1]), 0.5) for i in range(len(reps) - 1)
    ]
    delta = GraphDelta.from_edges(matrix.ncols, add, [])
    patched = delta.apply(matrix)
    assert len(dirty_vertices(patched, delta)) == matrix.ncols
    cold = hipmcl(patched, OPTS, CFG)
    warm = _warm(matrix, base, delta)
    assert np.array_equal(warm.labels, cold.labels)


def test_run_warm_start_traces_dirty_metric(nets):
    from repro.trace import Tracer

    matrix = nets["islands"]
    base = hipmcl(matrix, OPTS, CFG)
    delta = localized_delta(matrix, 6, 9)
    tracer = Tracer()
    run_warm_start(
        matrix,
        WarmStart(np.asarray(base.labels, dtype=np.int64), delta),
        OPTS, CFG, trace=tracer,
    )
    assert any(m.name == "locality.delta.dirty" for m in tracer.metrics)


def test_warm_start_composes_with_workers(nets):
    matrix = nets["islands"]
    base = hipmcl(matrix, OPTS, CFG)
    delta = localized_delta(matrix, 8, 21)
    cold = hipmcl(delta.apply(matrix), OPTS, CFG)
    warm = _warm(matrix, base, delta, workers=2)
    assert np.array_equal(warm.labels, cold.labels)
