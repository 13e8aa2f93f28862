"""The service facade: one directory = one clustering service.

A :class:`ClusterService` owns a directory with everything durable::

    <dir>/queue.db            the job table (SQLite, WAL)
    <dir>/cache/<key>.npz     memoized results (labels + history)
    <dir>/checkpoints/<job>/  per-iteration checkpoints of running jobs
    <dir>/metrics/<job>.ndjson  streamed per-job progress

Everything a client or runner needs goes through the directory, so any
number of submitting clients and runner processes cooperate by pointing
at the same path — and a service restarted from nothing but this
directory picks up exactly where it died: queued jobs stay queued,
orphaned leases expire and requeue, half-run jobs resume from their
checkpoints, and finished keys serve from the cache.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from ..errors import ReproError, ServiceError
from .cache import ResultCache
from .jobs import JobSpec
from .queue import JobQueue
from .runner import ServiceRunner
from .stream import tail_metrics


class ClusterService:
    """Facade over a service directory (queue + cache + checkpoints)."""

    def __init__(self, directory, *, clock=time.time):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self.queue = JobQueue(self.directory / "queue.db", clock=clock)
        self.cache = ResultCache(self.directory / "cache")

    def close(self) -> None:
        self.queue.close()

    # -- layout ----------------------------------------------------------

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.directory / "checkpoints" / job_id

    def metrics_path(self, job_id: str) -> Path:
        return self.directory / "metrics" / f"{job_id}.ndjson"

    def clear_checkpoints(self, job_id: str) -> None:
        shutil.rmtree(self.checkpoint_dir(job_id), ignore_errors=True)

    # -- client side -----------------------------------------------------

    def submit(
        self,
        spec: JobSpec | dict,
        *,
        job_id: str | None = None,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        serve_from_cache: bool = True,
    ) -> str:
        """Enqueue a job; returns its id.

        Computes the job's cache key up front (this loads the graph
        once).  When ``serve_from_cache`` and the key is already
        memoized, the job is driven straight through
        ``queued → claimed → done`` here in the client — re-submitting an
        identical ``(graph, options)`` pair returns memoized labels
        without a runner ever recomputing (or even seeing) it.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        try:
            matrix, _ = spec.load_graph()
            key = spec.cache_key(matrix)
        except (ReproError, OSError):
            # Graph unreadable *right now* (maybe a transient mount
            # hiccup; maybe truly gone).  Enqueue anyway with no key —
            # the runner retries the load under the job's retry budget
            # and computes the key if it heals.
            key = matrix = None
        jid = self.queue.submit(
            spec.to_dict(),
            job_id=job_id,
            cache_key=key,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
        if serve_from_cache and key is not None:
            cached = self.cache.get(key, n=matrix.ncols)
            if cached is not None:
                job = self.queue.claim(
                    "cache-submit", lease_seconds=60.0, job_id=jid
                )
                if job is not None:
                    self.queue.complete(
                        jid,
                        "cache-submit",
                        {
                            "cache_key": key,
                            "cache_hit": True,
                            "n_clusters": cached.n_clusters,
                            "iterations": cached.iterations,
                            "converged": cached.converged,
                            "elapsed_seconds": cached.elapsed_seconds,
                            "resumed_from_iteration": 0,
                        },
                    )
        return jid

    def status(self, job_id: str):
        """The job's current row (state, attempts, requeues, result...)."""
        return self.queue.get(job_id)

    def result(self, job_id: str):
        """The finished job's memoized result (labels + history).

        Raises :class:`ServiceError` unless the job is ``done`` and its
        cache entry is readable.
        """
        job = self.queue.get(job_id)
        if job.state != "done" or not job.result:
            raise ServiceError(
                f"job {job_id!r} has no result (state {job.state!r}"
                + (f", error: {job.error}" if job.error else "")
                + ")"
            )
        cached = self.cache.get(job.result["cache_key"])
        if cached is None:
            raise ServiceError(
                f"job {job_id!r} result cache entry "
                f"{job.result['cache_key']} is missing or corrupt"
            )
        return cached

    def labels(self, job_id: str) -> np.ndarray:
        return self.result(job_id).labels

    def progress(self, job_id: str, offset: int = 0):
        """Incremental progress: ``(metric_events, new_offset)``.

        Poll while the job runs; events land at iteration boundaries.
        """
        return tail_metrics(self.metrics_path(job_id), offset)

    # -- worker side -----------------------------------------------------

    def make_runner(self, **kwargs) -> ServiceRunner:
        return ServiceRunner(self, **kwargs)

    def counts(self) -> dict:
        return self.queue.counts()

    def __repr__(self):
        return f"ClusterService({str(self.directory)!r}, {self.counts()})"
