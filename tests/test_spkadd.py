"""Parallel SpKAdd: partitioning, strategies, planning, and the engine wiring.

Unit coverage for :mod:`repro.merge.spkadd` plus the integration seams:
the strategy planner in :mod:`repro.summa.phases`, the executor fan-out
(worker-lane trace evidence), the merge-overrun recovery ladder, and the
tier-2 wall-clock acceptance for the parallel merge itself.
"""

import os

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.merge import TripleList, merge_lists, spkadd_merge
from repro.merge.spkadd import (
    MERGE_IMPLS,
    SPKADD_MIN_ELEMENTS,
    STRATEGY_LADDER,
    merge_range,
    partition_bounds,
    resolve_merge_impl,
    strategy_peak_bytes,
)
from repro.sparse import random_csc
from repro.summa.phases import plan_merge_strategy


def _lists(shape=(400, 400), k=6, density=0.01, seed0=30):
    return [
        TripleList.from_csc(random_csc(shape, density, seed=seed0 + i))
        for i in range(k)
    ]


def assert_triples_equal(out, ref):
    assert out.shape == ref.shape
    assert np.array_equal(out.cols, ref.cols)
    assert np.array_equal(out.rows, ref.rows)
    assert np.array_equal(out.vals, ref.vals)


# ---------------------------------------------------------------------------
# Partitioning and the knob
# ---------------------------------------------------------------------------


class TestPartitionBounds:
    @pytest.mark.parametrize("ncols,parts", [(1, 1), (7, 3), (16, 4),
                                             (5, 8), (100, 7)])
    def test_disjoint_and_covering(self, ncols, parts):
        bounds = partition_bounds(ncols, parts)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == ncols
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
            assert a0 < a1
        assert len(bounds) == min(parts, ncols)

    def test_near_even(self):
        bounds = partition_bounds(10, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestResolveMergeImpl:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_MERGE_IMPL", raising=False)
        assert resolve_merge_impl(None) == "auto"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_MERGE_IMPL", "tree")
        assert resolve_merge_impl(None) == "tree"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MERGE_IMPL", "tree")
        assert resolve_merge_impl("hash") == "hash"

    def test_case_folded(self):
        assert resolve_merge_impl("SERIAL") == "serial"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown merge impl"):
            resolve_merge_impl("quantum")

    def test_vocabulary(self):
        assert MERGE_IMPLS == ("serial", "tree", "hash", "auto")


# ---------------------------------------------------------------------------
# merge_range / spkadd_merge bit-identity
# ---------------------------------------------------------------------------


class TestMergeRange:
    @pytest.mark.parametrize("strategy", ["tree", "hash"])
    def test_range_equals_reference_restriction(self, strategy):
        lists = _lists(shape=(120, 90), k=5)
        ref = merge_lists(list(lists))
        lo, hi = 30, 61
        cols, rows, vals, n_in = merge_range(
            strategy, (120, 90), lo, hi, lists
        )
        mask = (ref.cols >= lo) & (ref.cols < hi)
        assert np.array_equal(cols, ref.cols[mask])
        assert np.array_equal(rows, ref.rows[mask])
        assert np.array_equal(vals, ref.vals[mask])
        assert n_in == sum(
            int(np.count_nonzero((t.cols >= lo) & (t.cols < hi)))
            for t in lists
        )

    def test_empty_range(self):
        lists = _lists(k=2)
        cols, rows, vals, n_in = merge_range("tree", (400, 400), 0, 0, lists)
        assert len(cols) == len(rows) == len(vals) == 0
        assert n_in == 0

    def test_unknown_strategy(self):
        lists = _lists(shape=(16, 16), k=1, density=0.5)
        assert len(lists[0]) > 0
        with pytest.raises(ValueError, match="tree.*hash"):
            merge_range("serial", (16, 16), 0, 16, lists)


class TestSpkaddMerge:
    @pytest.mark.parametrize("strategy", ["serial", "tree", "hash"])
    @pytest.mark.parametrize("parts", [1, 3, 7])
    def test_inline_bit_identical(self, strategy, parts):
        lists = _lists()
        ref = merge_lists(list(lists))
        out = spkadd_merge(list(lists), strategy=strategy, parts=parts)
        assert_triples_equal(out, ref)

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 2), ("thread", 4), ("process", 2),
    ])
    @pytest.mark.parametrize("strategy", ["tree", "hash"])
    def test_executor_fanout_bit_identical(self, backend, workers, strategy):
        from repro.parallel import get_executor

        lists = _lists(shape=(600, 600), k=8, density=0.008)
        ref = merge_lists(list(lists))
        stats = {}
        out = spkadd_merge(
            list(lists), strategy=strategy,
            executor=get_executor(workers, backend), stats=stats,
        )
        assert_triples_equal(out, ref)
        assert stats["parts"] == workers
        assert stats["peak_partition_elements"] > 0

    def test_shape_mismatch_rejected(self):
        a = TripleList.from_csc(random_csc((8, 8), 0.2, seed=1))
        b = TripleList.from_csc(random_csc((8, 9), 0.2, seed=2))
        with pytest.raises(ShapeError):
            spkadd_merge([a, b], strategy="tree")

    def test_no_lists_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            spkadd_merge([], strategy="tree")

    def test_all_empty_lists(self):
        empty = TripleList.from_csc(random_csc((16, 16), 0.0, seed=3))
        out = spkadd_merge([empty, empty], strategy="hash", parts=4)
        assert len(out) == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown merge strategy"):
            spkadd_merge(_lists(k=2), strategy="bogus")

    def test_slow_path_matches_fast_path(self, monkeypatch):
        # Both sides of range_dense_eligible: the dense hash scatter vs
        # the stable argsort it falls back to when the range is too wide.
        from repro.perf import merge as perf_merge

        lists = _lists(shape=(300, 300), k=6)
        fast = spkadd_merge(list(lists), strategy="hash", parts=3)
        monkeypatch.setattr(perf_merge, "DENSE_CELL_LIMIT", 0)
        slow = spkadd_merge(list(lists), strategy="hash", parts=3)
        assert_triples_equal(slow, fast)


# ---------------------------------------------------------------------------
# The planner: auto, budget demotion, recovery rung
# ---------------------------------------------------------------------------


class TestPlanMergeStrategy:
    def test_serial_impl_is_serial(self):
        assert plan_merge_strategy("serial", 10**6, (100, 100)) == "serial"

    def test_auto_small_input_stays_serial(self):
        total = SPKADD_MIN_ELEMENTS - 1
        assert plan_merge_strategy("auto", total, (100, 100)) == "serial"

    def test_auto_large_input_prefers_hash(self):
        assert plan_merge_strategy(
            "auto", SPKADD_MIN_ELEMENTS, (100, 100)
        ) == "hash"

    def test_budget_demotes_hash_to_tree(self):
        shape = (10_000, 10_000)  # dense table alone: 900 MB
        total = SPKADD_MIN_ELEMENTS
        budget = strategy_peak_bytes("tree", total, shape)
        assert plan_merge_strategy(
            "auto", total, shape, budget_bytes=budget
        ) == "tree"

    def test_budget_can_demote_to_serial(self):
        shape = (10_000, 10_000)
        total = SPKADD_MIN_ELEMENTS
        budget = strategy_peak_bytes("serial", total, shape)
        assert plan_merge_strategy(
            "auto", total, shape, budget_bytes=budget
        ) == "serial"

    def test_floor_is_serial_even_over_budget(self):
        assert plan_merge_strategy(
            "auto", SPKADD_MIN_ELEMENTS, (10_000, 10_000), budget_bytes=1
        ) == "serial"

    def test_rung_demotes_explicit_hash(self):
        shape = (100, 100)
        total = SPKADD_MIN_ELEMENTS
        assert plan_merge_strategy("hash", total, shape, rung=0) == "hash"
        assert plan_merge_strategy("hash", total, shape, rung=1) == "tree"
        assert plan_merge_strategy("hash", total, shape, rung=2) == "serial"
        assert plan_merge_strategy("hash", total, shape, rung=99) == "serial"

    def test_explicit_tree_starts_at_tree(self):
        assert plan_merge_strategy(
            "tree", SPKADD_MIN_ELEMENTS, (100, 100)
        ) == "tree"

    def test_peak_bytes_ordering_and_errors(self):
        shape = (2_000, 2_000)
        n = 50_000
        assert (
            strategy_peak_bytes("hash", n, shape)
            > strategy_peak_bytes("tree", n, shape)
            > strategy_peak_bytes("serial", n, shape)
        )
        with pytest.raises(ValueError, match="unknown merge strategy"):
            strategy_peak_bytes("bogus", n, shape)
        assert STRATEGY_LADDER == ("hash", "tree", "serial")


# ---------------------------------------------------------------------------
# Engine wiring: worker-lane evidence, selections, the recovery ladder
# ---------------------------------------------------------------------------


def _phased_engine_run(tracer=None, merge_impl="hash", workers=4):
    from repro.machine import SUMMIT_LIKE
    from repro.mpi import ProcessGrid, VirtualComm
    from repro.nets import planted_network
    from repro.summa import DistributedCSC, SummaConfig, summa_multiply
    from repro.trace import activate

    mat = planted_network(
        240, intra_degree=14.0, inter_degree=2.0, seed=9
    ).matrix
    grid = ProcessGrid(4)
    dist = DistributedCSC.from_global(mat, grid)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    with activate(tracer):
        return summa_multiply(
            dist, dist, comm, SummaConfig(merge_impl=merge_impl), phases=2,
            workers=workers, backend="thread", overlap=True,
        )


@pytest.fixture
def eager_fanout(monkeypatch):
    """Drop the engine's fan-out floor so the planted test net (far
    smaller than the catalog nets, which clear the real floor) exercises
    the executor path.  Wall-clock-only: results never depend on it."""
    import repro.summa.engine as engine

    monkeypatch.setattr(engine, "MERGE_FANOUT_MIN_ELEMENTS", 1)


class TestEngineWiring:
    def test_merge_runs_on_worker_lanes(self, eager_fanout):
        from repro.trace import MAIN_LANE, Tracer

        tracer = Tracer()
        res = _phased_engine_run(tracer)
        assert res.merge_impl == "hash"
        assert sum(res.merge_strategy_selections.values()) > 0
        worker_merges = [
            s for s in tracer.spans
            if s.name == "merge_partition" and s.lane != MAIN_LANE
        ]
        assert worker_merges, "no merge_partition span on any worker lane"
        partitions = tracer.find("merge.partition")
        assert partitions
        assert partitions[0].attrs["strategy"] in STRATEGY_LADDER

    def test_merge_report_sees_the_fanout(self, eager_fanout):
        from repro.trace import Tracer, merge_report

        tracer = Tracer()
        _phased_engine_run(tracer)
        rep = merge_report(tracer)
        assert rep is not None
        assert rep["worker_seconds"] > 0
        assert 0.0 < rep["parallel_fraction"] <= 1.0

    @pytest.mark.parametrize("merge_impl", ["serial", "tree", "hash", "auto"])
    def test_engine_results_identical_across_impls(self, merge_impl):
        ref = _phased_engine_run(merge_impl="serial", workers=1)
        run = _phased_engine_run(merge_impl=merge_impl, workers=4)
        assert np.array_equal(
            run.dist_c.to_global().to_dense(),
            ref.dist_c.to_global().to_dense(),
        )

    def test_config_rejects_unknown_impl(self):
        from repro.summa import SummaConfig

        with pytest.raises(ValueError, match="merge impl"):
            SummaConfig(merge_impl="bogus")


class TestMergeFaultLadder:
    def _run(self, policy=None, **kw):
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.mcl.options import MclOptions
        from repro.nets import planted_network
        from repro.resilience import FaultPlan

        mat = planted_network(
            120, intra_degree=10.0, inter_degree=1.5, seed=5
        ).matrix
        cfg = HipMCLConfig(
            nodes=16, memory_budget_bytes=64 * 1024, resilience=policy
        )
        opts = MclOptions(select_number=20)
        plan = FaultPlan(seed=11, merge_overrun_rate=1.0)
        return hipmcl(mat, opts, cfg, faults=plan, **kw)

    def test_overruns_demote_and_stay_bit_identical(self):
        ref = self._run(workers=1)
        assert ref.merge_demotions > 0
        assert ref.faults_injected.get("merge", 0) > 0
        for merge_impl in ("tree", "hash", "auto"):
            run = self._run(
                workers=2, backend="thread", overlap=True,
                merge_impl=merge_impl,
            )
            assert np.array_equal(run.labels, ref.labels)
            assert run.elapsed_seconds == ref.elapsed_seconds
            assert run.merge_demotions == ref.merge_demotions
            assert run.faults_injected == ref.faults_injected

    def test_disarmed_policy_disables_merge_site(self):
        from repro.resilience import ResiliencePolicy

        run = self._run(
            policy=ResiliencePolicy(degrade_merge=False), workers=1
        )
        assert run.merge_demotions == 0
        assert run.faults_injected.get("merge", 0) == 0


# ---------------------------------------------------------------------------
# Wall-clock acceptance (tier2; needs real cores)
# ---------------------------------------------------------------------------

USABLE_CORES = len(os.sched_getaffinity(0))


@pytest.mark.tier2_merge
@pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"needs >= 4 usable cores, have {USABLE_CORES}",
)
class TestMergeWallClock:
    def test_parallel_hash_beats_serial_merge(self):
        import time

        from repro.parallel import get_executor

        shape = (6000, 6000)
        lists = [
            TripleList.from_csc(random_csc(shape, 0.003, seed=50 + i))
            for i in range(12)
        ]
        executor = get_executor(4, "thread")

        def best_of(fn, n=3):
            fn()  # warmup
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        serial_s = best_of(lambda: merge_lists(list(lists)))
        par_s = best_of(
            lambda: spkadd_merge(
                list(lists), strategy="hash", executor=executor
            )
        )
        out = spkadd_merge(list(lists), strategy="hash", executor=executor)
        assert_triples_equal(out, merge_lists(list(lists)))
        ratio = serial_s / par_s
        assert ratio >= 1.3, (
            f"parallel merge speedup {ratio:.2f}x < 1.3x "
            f"(serial {serial_s:.3f}s, parallel {par_s:.3f}s)"
        )
