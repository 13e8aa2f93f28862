"""Unit tests for the warm start: graph deltas, dirty components, and
the service's delta jobs."""

import numpy as np
import pytest

from repro.errors import LocalityError
from repro.locality import (
    GraphDelta,
    WarmStart,
    dirty_vertices,
    induced_subgraph,
    localized_delta,
    parse_delta_lines,
    random_delta,
)
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network


@pytest.fixture(scope="module")
def islands():
    """Pure planted clusters, zero inter-cluster edges."""
    return planted_network(
        240, intra_degree=10.0, inter_degree=0.0, seed=9
    ).matrix


# -- deltas ------------------------------------------------------------------


def test_delta_validates_bounds():
    with pytest.raises(LocalityError):
        GraphDelta.from_edges(4, [(0, 9, 1.0)], [])
    with pytest.raises(LocalityError):
        GraphDelta.from_edges(4, [], [(-1, 2)])


def test_delta_apply_adds_and_removes(islands):
    n = islands.ncols
    delta = GraphDelta.from_edges(n, [(0, 1, 0.5)], [])
    patched = delta.apply(islands)
    dense = patched.to_dense()
    assert dense[0, 1] == pytest.approx(0.5) or dense[0, 1] > 0
    assert dense[1, 0] == dense[0, 1]  # symmetric application
    undo = GraphDelta.from_edges(n, [], [(0, 1)])
    dense2 = undo.apply(patched).to_dense()
    assert dense2[0, 1] == 0.0 and dense2[1, 0] == 0.0


def test_delta_fingerprint_and_payload_roundtrip():
    d = GraphDelta.from_edges(10, [(1, 2, 0.3)], [(3, 4)])
    d2 = GraphDelta.from_payload(10, d.to_payload())
    assert d.fingerprint() == d2.fingerprint()
    other = GraphDelta.from_edges(10, [(1, 2, 0.4)], [(3, 4)])
    assert other.fingerprint() != d.fingerprint()


def test_parse_delta_lines():
    add, remove = parse_delta_lines(
        ["# header", "", "add 1 2 0.5", "add 3 4", "remove 5 6  # trailing"]
    )
    assert add == [(1, 2, 0.5), (3, 4, 1.0)]
    assert remove == [(5, 6)]
    with pytest.raises(LocalityError):
        parse_delta_lines(["add 1"])
    with pytest.raises(LocalityError):
        parse_delta_lines(["remove 1 two"])


def test_dirty_vertices_confined_to_touched_components(islands):
    delta = localized_delta(islands, 6, 3)
    patched = delta.apply(islands)
    dirty = dirty_vertices(patched, delta)
    assert 0 < len(dirty) < islands.ncols
    from repro.mcl.components import connected_components

    comp = connected_components(patched)
    touched = set(comp[delta.endpoints].tolist())
    assert set(comp[dirty].tolist()) == touched


def test_induced_subgraph_matches_dense(islands):
    verts = np.array([3, 7, 11, 40, 41, 42], dtype=np.int64)
    sub = induced_subgraph(islands, verts)
    expected = islands.to_dense()[np.ix_(verts, verts)]
    assert np.allclose(sub.to_dense(), expected)


def test_random_delta_deterministic(islands):
    a = random_delta(islands, 0.02, 5)
    b = random_delta(islands, 0.02, 5)
    assert a.fingerprint() == b.fingerprint()
    assert a.num_edges > 0


def test_warm_start_label_length_validated(islands):
    delta = localized_delta(islands, 4, 1)
    warm = WarmStart(np.zeros(3, dtype=np.int64), delta)
    with pytest.raises(LocalityError):
        hipmcl(islands, MclOptions(), HipMCLConfig.optimized(nodes=16),
               warm_start=warm)


# -- service delta jobs ------------------------------------------------------


def test_delta_jobs_key_and_warm_start(tmp_path):
    from repro.service import ClusterService, JobSpec

    net = planted_network(160, intra_degree=9.0, inter_degree=0.0, seed=4)
    from repro.sparse import write_matrix_market

    mtx = tmp_path / "net.mtx"
    write_matrix_market(net.matrix, mtx)
    payload = {"add": [[0, 1, 0.5]], "remove": []}

    base = JobSpec(graph=str(mtx))
    with_delta = JobSpec(graph=str(mtx), delta=payload)
    assert base.cache_key() != with_delta.cache_key()
    # Dropping the delta component recovers the base key.
    mat, _ = base.load_graph()
    assert with_delta.base_cache_key(mat) == base.cache_key(mat)
    # workers is a wall-clock knob: same key.
    assert JobSpec(graph=str(mtx), workers=2).cache_key() \
        == base.cache_key()

    service = ClusterService(tmp_path / "svc")
    try:
        runner = service.make_runner(poll_seconds=0.0)
        jid_base = service.submit(base)
        runner.drain()
        jid_delta = service.submit(with_delta)
        runner.drain()
        outcomes = dict(runner.processed)
        assert outcomes[jid_base] == "done"
        assert outcomes[jid_delta] == "done"
        # The delta job's labels equal a cold run on the patched graph.
        delta = with_delta.load_delta(mat)
        cold = hipmcl(
            delta.apply(mat), with_delta.build_options(),
            with_delta.build_config(),
        )
        assert np.array_equal(service.labels(jid_delta), cold.labels)
        # Resubmitting the same delta hits the cache.
        jid_again = service.submit(with_delta)
        assert service.status(jid_again).state == "done"
    finally:
        service.close()


def test_delta_job_cold_falls_back_without_base(tmp_path):
    """No cached base labels: the worker cold-runs the patched graph."""
    from repro.service import ClusterService, JobSpec

    net = planted_network(120, intra_degree=8.0, inter_degree=0.0, seed=6)
    from repro.sparse import write_matrix_market

    mtx = tmp_path / "net.mtx"
    write_matrix_market(net.matrix, mtx)
    spec = JobSpec(graph=str(mtx), delta={"add": [[0, 2, 0.7]], "remove": []})
    service = ClusterService(tmp_path / "svc")
    try:
        runner = service.make_runner(poll_seconds=0.0)
        jid = service.submit(spec)
        runner.drain()
        assert dict(runner.processed)[jid] == "done"
        mat, _ = spec.load_graph()
        delta = spec.load_delta(mat)
        cold = hipmcl(
            delta.apply(mat), spec.build_options(), spec.build_config()
        )
        assert np.array_equal(service.labels(jid), cold.labels)
    finally:
        service.close()


def test_malformed_delta_job_fails_cleanly(tmp_path):
    from repro.service import ClusterService, JobSpec

    net = planted_network(80, intra_degree=8.0, inter_degree=1.0, seed=2)
    from repro.sparse import write_matrix_market

    mtx = tmp_path / "net.mtx"
    write_matrix_market(net.matrix, mtx)
    spec = JobSpec(
        graph=str(mtx), delta={"add": [[0, 10_000, 1.0]], "remove": []}
    )
    service = ClusterService(tmp_path / "svc")
    try:
        runner = service.make_runner(poll_seconds=0.0)
        jid = service.submit(spec, max_retries=0)
        runner.drain()
        assert service.status(jid).state == "failed"
    finally:
        service.close()
