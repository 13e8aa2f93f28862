"""The six workloads of the benchmark of record.

Closed loop, one client, one process: a workload is one input and one
configuration, and the timed operation is one whole ``hipmcl`` (or
``run_warm_start``) call on it.  ``nodes=16`` everywhere; every knob not
named here is the library default.

Inputs are made from ``--seed``.  Seed 0 is the generator's seed-0 graph,
exactly the run ROADMAP.md quotes; any other seed relabels the vertices
of that graph with a seeded permutation.  The relabelled graph is
isomorphic, so iterations and flops repeat while the 4x4 block
distribution, the estimator's draws, the phase plan and every simulated
figure move.  A fresh generator seed per run was measured first and
rejected: it moves the iteration count (13-18 on ``baseline-orig``) and
with it every end-to-end metric by 7-23 % between seeds, which is wider
than any regression bound the benchmark could then resolve (README.md).
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.locality import (
    GraphDelta, WarmStart, dirty_vertices, localized_delta,
)
from repro.mcl.hipmcl import HipMCLConfig
from repro.mcl.options import MclOptions
from repro.nets import catalog
from repro.nets.planted import Network, planted_network
from repro.parallel import get_executor, shutdown_executors
from repro.sparse import _compressed as _c
from repro.sparse import csc_from_triples

NODES = 16

# The timed calls are looked up on their modules at call time, so the
# traced run's wrappers (layers.py) take effect without touching src/.
_hipmcl_mod = importlib.import_module("repro.mcl.hipmcl")
_delta_mod = importlib.import_module("repro.locality.delta")


@dataclass
class Case:
    """One prepared workload: the timed call and what checks it."""

    #: ``run(trace=None, workers=...)`` makes one timed call and returns
    #: its result; ``workers`` defaults to the workload's own count.
    run: Callable
    #: Planted labels of the input (``quality_nmi``).
    truth: np.ndarray
    #: Labels the timed call must reproduce exactly, or None.
    oracle_labels: np.ndarray | None = None
    #: True when a ``run(workers=1)`` must give the same labels and
    #: simulated figures (checked once per traced run).
    serial_oracle: bool = False
    #: Set-up measurements that feed per-layer metrics.
    facts: dict = field(default_factory=dict)


def _vertex_order(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def relabel(net: Network, seed: int) -> Network:
    """``net`` with its vertices renamed by a seeded permutation."""
    if seed == 0:
        return net
    m = net.matrix
    n = m.ncols
    perm = _vertex_order(n, seed)
    cols = _c.expand_major(m.indptr, n)
    truth = np.empty(n, dtype=np.int64)
    truth[perm] = net.true_labels
    return Network(
        name=net.name,
        matrix=csc_from_triples((n, n), perm[m.indices], perm[cols], m.data),
        true_labels=truth,
        meta=net.meta,
    )


def relabel_delta(delta: GraphDelta, seed: int) -> GraphDelta:
    """``delta`` under the renaming :func:`relabel` gives its graph."""
    if seed == 0:
        return delta
    perm = _vertex_order(delta.n, seed)
    return GraphDelta(
        delta.n, perm[delta.add_rows], perm[delta.add_cols], delta.add_vals,
        perm[delta.remove_rows], perm[delta.remove_cols],
    )


def _smoke_net(inter_degree: float = 1.0) -> Network:
    return planted_network(
        480, intra_degree=18, inter_degree=inter_degree, min_cluster=8,
        max_cluster=60, seed=3,
    )


_SMOKE_OPTIONS = MclOptions(2.0, 1e-4, select_number=20)


def _catalog_case(
    name, seed, smoke, make_config, *, n=None, budget=None,
    smoke_budget=2**20, workers=1,
) -> Case:
    """A ``hipmcl`` call on catalog net ``name`` (its recipe at ``n``
    vertices, if given) with the catalog's options and budget."""
    entry = catalog.entry(name)
    if n is not None:
        entry = dataclasses.replace(entry, n=n)
    t0 = time.perf_counter()
    net = relabel(_smoke_net() if smoke else entry.generate(seed=0), seed)
    facts = {"generate_s": time.perf_counter() - t0}
    if smoke:
        options, budget = _SMOKE_OPTIONS, smoke_budget
    else:
        options = entry.options()
        budget = budget or entry.memory_budget_bytes
    config = make_config(nodes=NODES, memory_budget_bytes=budget)

    def run(trace=None, workers=workers):
        return _hipmcl_mod.hipmcl(
            net.matrix, options, config, workers=workers, trace=trace
        )

    return Case(run=run, truth=net.true_labels, facts=facts)


def dense_sync(seed: int, smoke: bool) -> Case:
    return _catalog_case("isom100-3-xs", seed, smoke, HipMCLConfig.optimized)


def sparse_sync(seed: int, smoke: bool) -> Case:
    # The metaclust50-xs recipe (degree 24, weak clusters) at 6000
    # vertices: cf < 3 in most iterations.
    return _catalog_case(
        "metaclust50-xs", seed, smoke, HipMCLConfig.optimized, n=6000
    )


def phased_static3d(seed: int, smoke: bool) -> Case:
    def config(**kwargs):
        return HipMCLConfig.optimized(
            schedule="static", grid="3d", transport="hybrid", **kwargs
        )

    # 0.5 MiB forces 13/21/4/3/3/2 phases in the first six iterations.
    return _catalog_case(
        "eukarya-xs", seed, smoke, config, budget=2**19, smoke_budget=2**16
    )


def baseline_orig(seed: int, smoke: bool) -> Case:
    return _catalog_case("archaea-xs", seed, smoke, HipMCLConfig.original)


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def dense_pool(seed: int, smoke: bool) -> Case:
    workers = pool_workers()
    case = _catalog_case(
        "isom100-3-xs", seed, smoke, HipMCLConfig.optimized, workers=workers
    )
    case.serial_oracle = workers > 1
    # Pool spin-up is set-up: a fresh pool, started by one trivial batch.
    shutdown_executors()
    t0 = time.perf_counter()
    get_executor(workers).run_batch(len, [((),)] * workers)
    case.facts["spinup_s"] = time.perf_counter() - t0
    return case


def delta_warm(seed: int, smoke: bool) -> Case:
    t0 = time.perf_counter()
    if smoke:
        base_net = _smoke_net(inter_degree=0.0)
        options, budget, edges = _SMOKE_OPTIONS, 2**20, 6
    else:
        base_net = planted_network(
            6400, intra_degree=30, inter_degree=0, name="islands", seed=11
        )
        options = MclOptions(2.0, 1e-4, select_number=40)
        budget, edges = 4 * 2**20, 48
    # The delta is drawn on the seed-0 graph and renamed with it, so
    # every seed patches the same edges of the same graph.
    delta = relabel_delta(localized_delta(base_net.matrix, edges, 5), seed)
    net = relabel(base_net, seed)
    facts = {"generate_s": time.perf_counter() - t0}
    config = HipMCLConfig.optimized(nodes=NODES, memory_budget_bytes=budget)
    matrix = net.matrix
    # Base clustering and the cold run on the patched graph are set-up:
    # the first is the warm start's input, the second its oracle.
    base = _hipmcl_mod.hipmcl(matrix, options, config, workers=1)
    patched = delta.apply(matrix)
    t0 = time.perf_counter()
    cold = _hipmcl_mod.hipmcl(patched, options, config, workers=1)
    facts["cold_oracle_s"] = time.perf_counter() - t0
    facts["dirty_fraction"] = (
        len(dirty_vertices(patched, delta)) / patched.ncols
    )
    warm = WarmStart(base.labels, delta)

    def run(trace=None, workers=1):
        return _delta_mod.run_warm_start(
            matrix, warm, options, config, workers=workers, trace=trace
        )

    return Case(
        run=run, truth=net.true_labels, oracle_labels=cold.labels,
        facts=facts,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], Case]
    why: str
    #: Workload with the same input and configuration whose committed
    #: golden figures therefore apply (None: its own).
    same_as: str | None = None

    @property
    def golden(self) -> str:
        return self.same_as or self.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-sync", dense_sync,
            "isom100-3-xs, optimized, workers=1: high cf, one phase; local "
            "multiplies and merges do the work, the estimator almost none",
        ),
        Workload(
            "sparse-sync", sparse_sync,
            "metaclust50 recipe at n=6000: cf<3 sends the hybrid estimator "
            "to exact symbolic; the estimator does the work, multiply little",
        ),
        Workload(
            "phased-static3d", phased_static3d,
            "eukarya-xs at 0.5 MiB, static schedule, 3d grid, hybrid "
            "transport: many tiny stage products, so per-call cost shows",
        ),
        Workload(
            "baseline-orig", baseline_orig,
            "archaea-xs with HipMCLConfig.original: the paper's before "
            "bar; a gain for the optimized path that costs this one shows",
        ),
        Workload(
            "dense-pool", dense_pool,
            "dense-sync input at workers=min(2,nproc): the only workload "
            "where repro.parallel runs; its cost against dense-sync",
            same_as="dense-sync",
        ),
        Workload(
            "delta-warm", delta_warm,
            "48-edge local delta on a 6400-vertex islands net: "
            "repro.locality re-clusters only the dirty 11 % of the graph",
        ),
    )
}
