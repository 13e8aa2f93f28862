"""Outside-in per-layer attribution: spans around each layer's public calls.

For the traced run only, each name in :data:`WRAPS` is rebound *at the
site that calls it* (``from x import f`` binds ``f`` in the importer, so
that is the binding to replace) to a wrapper that records a span
``[name, start, end, parent]`` in memory.  A layer's self time is its
spans' duration minus the part their child spans cover, so the layers
sum to the traced wall time.  Nothing under ``src/`` changes and the
bindings are restored afterwards.

A wrapped name that no longer exists fails at install; one that is not
called on a workload listed in its ``expect`` fails that run's checks —
a later rename cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SERIAL = ("dense-sync", "sparse-sync", "phased-static3d", "baseline-orig",
          "delta-warm")
HIPMCL = SERIAL + ("dense-pool",)


@dataclass(frozen=True)
class Wrap:
    span: str  # span name, unique per row
    module: str  # module whose binding is replaced (the call site)
    attr: str  # ``name`` or ``Class.method``
    expect: tuple  # workloads on which it must be called at least once
    #: Optional ``count(args, kwargs) -> int`` summed into ``counts[span]``.
    count: Callable | None = None


def _triples_in(args, kwargs):
    return sum(len(t) for t in args[0])


WRAPS = (
    # mcl: the driver and what it calls directly.
    Wrap("mcl.driver", "repro.mcl.hipmcl", "hipmcl", HIPMCL),
    Wrap("mcl.prepare", "repro.mcl.hipmcl", "prepare_matrix", HIPMCL),
    Wrap("mcl.prune", "repro.mcl.hipmcl", "distributed_prune_block_column",
         SERIAL),
    Wrap("mcl.inflate", "repro.mcl.hipmcl", "inflate", HIPMCL),
    Wrap("mcl.components", "repro.mcl.hipmcl", "connected_components",
         HIPMCL),
    # spgemm: the local multiply as the stage loop calls it, and the two
    # memory estimators as the driver calls them.
    Wrap("spgemm.local", "repro.summa.engine", "spgemm_esc", SERIAL),
    Wrap("spgemm.symbolic", "repro.mcl.hipmcl", "symbolic_nnz", HIPMCL),
    Wrap("spgemm.estimate", "repro.mcl.hipmcl", "estimate_nnz",
         ("dense-sync", "sparse-sync", "phased-static3d", "dense-pool",
          "delta-warm")),
    # merge: both numeric engines behind the engine's merge schedule.
    Wrap("merge.lists", "repro.summa.engine", "merge_lists", HIPMCL,
         _triples_in),
    Wrap("merge.spkadd", "repro.summa.engine", "spkadd_merge", HIPMCL,
         _triples_in),
    # summa: the stage loop itself, distribution, phase planning, and the
    # slab concatenation that closes a phased multiply.
    Wrap("summa.multiply", "repro.mcl.hipmcl", "summa_multiply", HIPMCL),
    Wrap("summa.distribute", "repro.summa.distmatrix",
         "DistributedCSC.from_global", HIPMCL),
    Wrap("summa.plan", "repro.mcl.hipmcl", "plan_phases", HIPMCL),
    Wrap("sparse.hstack", "repro.summa.engine", "hstack_csc", HIPMCL),
    # mpi: host time inside the simulated collectives (one span name per
    # method; the metrics sum them as ``mpi.comm``).
    Wrap("mpi.comm.broadcast", "repro.mpi.comm", "VirtualComm.broadcast",
         ("dense-sync", "sparse-sync", "baseline-orig", "dense-pool",
          "delta-warm")),
    Wrap("mpi.comm.broadcast_async", "repro.mpi.comm",
         "VirtualComm.broadcast_async", ("phased-static3d",)),
    Wrap("mpi.comm.p2p_chain_async", "repro.mpi.comm",
         "VirtualComm.p2p_chain_async", ("phased-static3d",)),
    Wrap("mpi.comm.allreduce", "repro.mpi.comm", "VirtualComm.allreduce",
         HIPMCL),
    Wrap("mpi.comm.alltoall", "repro.mpi.comm", "VirtualComm.alltoall",
         HIPMCL),
    Wrap("mpi.comm.barrier", "repro.mpi.comm", "VirtualComm.barrier",
         HIPMCL),
    # locality: the warm start's own steps around the dirty sub-run.
    Wrap("locality.stitch", "repro.locality.delta", "run_warm_start",
         ("delta-warm",)),
    Wrap("locality.apply", "repro.locality.delta", "GraphDelta.apply",
         ("delta-warm",)),
    Wrap("locality.dirty", "repro.locality.delta", "dirty_vertices",
         ("delta-warm",)),
    Wrap("locality.subgraph", "repro.locality.delta", "induced_subgraph",
         ("delta-warm",)),
)

#: Spans opened by the executor proxy (see :class:`_ExecutorProxy`).
PARALLEL_EXPECT = {
    "parallel.submit": ("dense-pool",),
    "parallel.gather_wait": ("dense-pool",),
}


class Recorder:
    """Spans ``[name, start, end, parent_index]`` and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def timed(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[name] += count(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _parent), covered in zip(self.spans, child_s):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out


class _HandleProxy:
    def __init__(self, handle, recorder):
        self.result = recorder.timed("parallel.gather_wait", handle.result)


class _ExecutorProxy:
    """Times ``submit_batch`` and each handle's ``result()`` of a pool."""

    def __init__(self, inner, recorder):
        self._inner = inner
        self._recorder = recorder
        self._submit = recorder.timed("parallel.submit", inner.submit_batch)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def submit_batch(self, fn, tasks, label=None, attrs=None):
        tasks = list(tasks)
        self._recorder.counts["parallel.tasks"] += len(tasks)
        handle = self._submit(fn, tasks, label=label, attrs=attrs)
        return _HandleProxy(handle, self._recorder)

    def run_batch(self, fn, tasks, label=None, attrs=None):
        return self.submit_batch(fn, tasks, label=label, attrs=attrs).result()


def _resolve(wrap: Wrap):
    """``(owner, name, raw binding)``; raises if the name is gone."""
    owner = importlib.import_module(wrap.module)
    *classes, name = wrap.attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = vars(owner)[name] if classes else getattr(owner, name)
    return owner, name, raw


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Rebind every wrapped name for the duration of the block."""
    parallel = importlib.import_module("repro.parallel")
    real_get_executor = parallel.get_executor

    def get_executor(workers=None, backend=None):
        return _ExecutorProxy(real_get_executor(workers, backend), recorder)

    saved = [(parallel, "get_executor", real_get_executor)]
    parallel.get_executor = get_executor
    try:
        for wrap in WRAPS:
            owner, name, raw = _resolve(wrap)
            saved.append((owner, name, raw))
            if isinstance(raw, classmethod):
                new = classmethod(
                    recorder.timed(wrap.span, raw.__func__, wrap.count)
                )
            else:
                new = recorder.timed(wrap.span, raw, wrap.count)
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


def uncalled(recorder: Recorder, workload: str) -> list[str]:
    """Wrapped names that ``workload`` should have called and did not."""
    seen = {span[0] for span in recorder.spans}
    expected = {w.span: w.expect for w in WRAPS} | PARALLEL_EXPECT
    return sorted(
        span for span, expect in expected.items()
        if workload in expect and span not in seen
    )
