"""The service runner and facade: claim → admit → run → complete.

Uses a tiny planted network on disk and an injected fake clock; the
runner's ``sleep`` advances the clock, so backoff windows and lease
expiries are crossed without wall-clock waiting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.mcl import MclOptions
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.nets import planted_network
from repro.service import ClusterService, JobSpec, MetricsStream, tail_metrics
from repro.sparse import write_matrix_market
from repro.trace import Tracer


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


OPTIONS = {
    "inflation": 2.0,
    "select_number": 30,
    "max_iterations": 60,
}


@pytest.fixture(scope="module")
def net_path(tmp_path_factory):
    net = planted_network(
        120, intra_degree=10.0, inter_degree=1.0, seed=7
    )
    path = tmp_path_factory.mktemp("nets") / "tiny.mtx"
    write_matrix_market(net.matrix, path)
    return path


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(tmp_path, clock):
    svc = ClusterService(tmp_path / "svc", clock=clock)
    yield svc
    svc.close()


def make_spec(net_path, **overrides) -> JobSpec:
    kwargs = {
        "graph": str(net_path),
        "mode": "optimized",
        "nodes": 4,
        "options": dict(OPTIONS),
    }
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def make_runner(service, clock, **kwargs):
    kwargs.setdefault("sleep", clock.advance)
    return service.make_runner(**kwargs)


class TestHappyPath:
    def test_drain_completes_job_with_reference_labels(
        self, service, clock, net_path
    ):
        spec = make_spec(net_path)
        jid = service.submit(spec)
        runner = make_runner(service, clock)
        assert runner.drain() == 1
        assert runner.processed == [(jid, "done")]

        job = service.status(jid)
        assert job.state == "done"
        assert job.result["cache_hit"] is False

        direct = hipmcl(
            *_load(net_path),
            HipMCLConfig.optimized(nodes=4),
        )
        assert np.array_equal(service.labels(jid), direct.labels)
        assert job.result["n_clusters"] == direct.n_clusters
        assert job.result["iterations"] == direct.iterations

    def test_checkpoints_cleared_after_done(self, service, clock, net_path):
        jid = service.submit(make_spec(net_path))
        make_runner(service, clock).drain()
        assert not service.checkpoint_dir(jid).exists()

    def test_drain_idle_queue_returns_zero(self, service, clock):
        assert make_runner(service, clock).drain() == 0


class TestResultCache:
    def test_runner_serves_second_identical_job_from_cache(
        self, service, clock, net_path
    ):
        spec = make_spec(net_path)
        first = service.submit(spec, serve_from_cache=False)
        second = service.submit(spec, serve_from_cache=False)
        runner = make_runner(service, clock)
        assert runner.drain() == 2
        assert dict(runner.processed) == {first: "done", second: "cache-hit"}
        assert service.status(second).result["cache_hit"] is True
        assert np.array_equal(service.labels(first), service.labels(second))

    def test_submit_time_cache_hit_never_reaches_a_runner(
        self, service, clock, net_path
    ):
        spec = make_spec(net_path)
        service.submit(spec)
        make_runner(service, clock).drain()
        jid = service.submit(spec)  # default serve_from_cache=True
        job = service.status(jid)
        assert job.state == "done"
        assert job.result["cache_hit"] is True
        assert service.queue.pending() == 0

    def test_wall_clock_knobs_share_a_cache_key(self, net_path):
        base = make_spec(net_path)
        tuned = make_spec(net_path, workers=2)
        assert base.cache_key() == tuned.cache_key()

    def test_option_changes_split_the_cache_key(self, net_path):
        base = make_spec(net_path)
        other = make_spec(
            net_path, options={**OPTIONS, "inflation": 3.0}
        )
        assert base.cache_key() != other.cache_key()


class TestMalformedCacheEntries:
    """A cache entry that parses as ``.npz`` but not as a result of this
    job is a miss — never an exception, never someone else's labels."""

    META = {
        "n_clusters": 2, "iterations": 3, "converged": True,
        "elapsed_seconds": 1.5, "history": [],
    }

    @staticmethod
    def _plant(cache, key, labels, meta):
        import json

        with open(cache._path(key), "wb") as fh:
            np.savez(fh, labels=labels, meta=np.array(json.dumps(meta)))

    def test_meta_without_n_clusters_is_a_miss(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        meta = {k: v for k, v in self.META.items() if k != "n_clusters"}
        self._plant(cache, "k", np.zeros(4, dtype=np.int64), meta)
        assert cache.get("k") is None

    def test_list_meta_is_a_miss(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        self._plant(cache, "k", np.zeros(4, dtype=np.int64), [1, 2, 3])
        assert cache.get("k") is None

    def test_labels_of_another_size_are_a_miss(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        self._plant(cache, "k", np.zeros(4, dtype=np.int64), self.META)
        assert cache.get("k", n=5) is None
        assert cache.get("k", n=4).n_clusters == 2

    def test_runner_recomputes_over_a_wrong_sized_entry(
        self, service, clock, net_path
    ):
        spec = make_spec(net_path)
        self._plant(
            service.cache, spec.cache_key(), np.zeros(7, dtype=np.int64),
            self.META,
        )
        jid = service.submit(spec)
        runner = make_runner(service, clock)
        assert runner.drain() == 1
        assert runner.processed == [(jid, "done")]
        assert len(service.labels(jid)) == 120


class TestAdmissionDeferral:
    def test_over_budget_claim_released_not_failed(
        self, service, clock, net_path
    ):
        jid = service.submit(make_spec(net_path))
        # Another worker already holds the whole budget.
        service.queue.admit("ghost", 10**9, budget=None)
        runner = make_runner(service, clock, memory_budget_bytes=10**9)
        assert runner.run_once() == jid
        assert runner.processed == [(jid, "admission-deferred")]
        job = service.status(jid)
        assert job.state == "queued"
        assert job.releases == 1
        assert job.attempts == 0  # deferral burns no retry

        service.queue.release_admission("ghost")
        clock.advance(1.0)
        assert runner.drain() == 1
        assert service.status(jid).state == "done"


class TestFailurePath:
    def test_bad_graph_retries_then_parks_failed(self, service, clock):
        spec = JobSpec(graph="/nonexistent/graph.mtx", options=dict(OPTIONS))
        jid = service.submit(spec, max_retries=2, backoff_base=1.0)
        runner = make_runner(service, clock)
        assert runner.drain() == 3  # initial attempt + 2 retries
        outcomes = [o for j, o in runner.processed if j == jid]
        assert outcomes == [
            "failed-spec:queued", "failed-spec:queued", "failed-spec:failed"
        ]
        job = service.status(jid)
        assert job.state == "failed"
        assert job.attempts == 3

    def test_result_of_unfinished_job_raises(self, service, net_path):
        jid = service.submit(make_spec(net_path))
        with pytest.raises(ServiceError, match="no result"):
            service.result(jid)

    def test_bad_mode_rejected_at_spec_construction(self):
        with pytest.raises(ServiceError, match="unknown job mode"):
            JobSpec(graph="x.mtx", mode="quantum")

    def test_malformed_spec_dict_rejected(self):
        with pytest.raises(ServiceError, match="malformed job spec"):
            JobSpec.from_dict({"graph": "x.mtx", "warp": 9})
        # The retired stage-overlap knob is no longer a field either.
        with pytest.raises(ServiceError, match="malformed job spec"):
            JobSpec.from_dict({"graph": "x.mtx", "overlap": True})

    def test_legacy_backend_key_is_dropped(self, tmp_path, clock, net_path):
        # Specs queued before the process backend was removed were stored
        # with a "backend" key, whatever its value.  They still run, to
        # the labels of the same spec without the key.
        legacy_row = {**make_spec(net_path).to_dict(), "backend": "process"}
        assert JobSpec.from_dict(legacy_row) == make_spec(net_path)
        legacy_svc = ClusterService(tmp_path / "legacy", clock=clock)
        plain_svc = ClusterService(tmp_path / "plain", clock=clock)
        try:
            legacy = legacy_svc.queue.submit(legacy_row, max_retries=0)
            plain = plain_svc.submit(make_spec(net_path))
            assert make_runner(legacy_svc, clock).drain() == 1
            assert make_runner(plain_svc, clock).drain() == 1
            assert legacy_svc.status(legacy).state == "done"
            assert plain_svc.status(plain).state == "done"
            assert np.array_equal(
                legacy_svc.labels(legacy), plain_svc.labels(plain)
            )
        finally:
            legacy_svc.close()
            plain_svc.close()

    def test_unparseable_queued_spec_fails_instead_of_poisoning(
        self, service, clock, net_path
    ):
        # A row queued by another version — one whose JobSpec had a field
        # this one dropped, or one that added a field — reaches the runner
        # without passing ``from_dict``.  It must burn retries and park in
        # `failed`, not escape the runner with the job still claimed, to
        # be requeued forever.
        row = {
            **make_spec(net_path).to_dict(), "merge_impl": "tree",
            "overlap": True, "priority": 1,
        }
        poison = service.queue.submit(row, max_retries=1, backoff_base=0.0)
        good = service.submit(make_spec(net_path))
        runner = make_runner(service, clock)
        assert runner.drain() == 3
        outcomes = [o for j, o in runner.processed if j == poison]
        assert outcomes == ["failed-spec:queued", "failed-spec:failed"]
        job = service.status(poison)
        assert job.state == "failed"
        assert "malformed job spec" in job.error
        assert service.status(good).state == "done"


class TestProgressStream:
    def test_metrics_stream_lands_at_iteration_boundaries(
        self, service, clock, net_path
    ):
        jid = service.submit(make_spec(net_path))
        make_runner(service, clock).drain()
        events, offset = service.progress(jid)
        assert offset > 0
        names = {e["name"] for e in events}
        assert "iteration.chaos" in names
        done = [e for e in events if e["name"] == "job.done"]
        assert len(done) == 1
        assert done[0]["attrs"]["job"] == jid
        # incremental: polling from the returned offset yields nothing new
        again, offset2 = service.progress(jid, offset)
        assert again == [] and offset2 == offset

    def test_tail_ignores_torn_final_line(self, tmp_path):
        path = tmp_path / "m.ndjson"
        path.write_text('{"name": "a"}\n{"name": "b"')  # torn tail
        events, offset = tail_metrics(path)
        assert [e["name"] for e in events] == ["a"]
        path.write_text('{"name": "a"}\n{"name": "b"}\n')
        events, _ = tail_metrics(path, offset)
        assert [e["name"] for e in events] == ["b"]

    def test_missing_stream_reads_empty(self, tmp_path):
        assert tail_metrics(tmp_path / "absent.ndjson") == ([], 0)

    def test_stream_flushes_only_new_events(self, tmp_path):
        tracer = Tracer()
        stream = MetricsStream(tmp_path / "s.ndjson")
        tracer.metric("a", 1.0)
        assert stream.flush(tracer) == 1
        assert stream.flush(tracer) == 0
        tracer.metric("b", 2.0)
        assert stream.flush(tracer) == 1
        events, _ = tail_metrics(tmp_path / "s.ndjson")
        assert [e["name"] for e in events] == ["a", "b"]


def _load(net_path):
    from repro.sparse import read_matrix_market

    return read_matrix_market(net_path), MclOptions(**OPTIONS)
