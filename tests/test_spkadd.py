"""SpKAdd: the engine behind every plan label, planning, and the wiring.

Unit coverage for :mod:`repro.merge.spkadd` plus the integration seams:
the strategy planner in :mod:`repro.summa.phases`, the engine's inline
merge (trace evidence, input precondition) and the merge-overrun recovery
ladder.  Bit-level oracles for the kernel itself live in
``tests/test_perf_equivalence.py``.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.merge import TripleList, merge_lists, spkadd_merge
from repro.merge.spkadd import (
    SPKADD_MIN_ELEMENTS,
    STRATEGY_LADDER,
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
    assert np.array_equal(out.indptr, ref.indptr)
    assert np.array_equal(out.cols, ref.cols)
    assert np.array_equal(out.rows, ref.rows)
    assert np.array_equal(out.vals, ref.vals)


# ---------------------------------------------------------------------------
# spkadd_merge: one engine behind every label
# ---------------------------------------------------------------------------


def _column_range(t, lo, hi):
    return TripleList.from_csc(t.to_csc().column_slab(lo, hi))


class TestMergeRange:
    """Merging commutes with taking a column range — what lets phases and
    the 3-D layers merge slabs of B's columns independently."""

    @pytest.mark.parametrize("strategy", ["tree", "hash"])
    def test_range_equals_reference_restriction(self, strategy):
        lists = _lists(shape=(120, 90), k=5)
        ref = merge_lists(list(lists))
        lo, hi = 30, 61
        out = spkadd_merge(
            [_column_range(t, lo, hi) for t in lists], strategy=strategy
        )
        mask = (ref.cols >= lo) & (ref.cols < hi)
        assert out.shape == (120, hi - lo)
        assert np.array_equal(out.cols, ref.cols[mask] - lo)
        assert np.array_equal(out.rows, ref.rows[mask])
        assert np.array_equal(out.vals, ref.vals[mask])

    def test_empty_range(self):
        lists = [_column_range(t, 7, 7) for t in _lists(k=2)]
        out = spkadd_merge(lists, strategy="tree")
        assert out.shape == (400, 0)
        assert len(out) == len(out.cols) == 0
        assert out.indptr.tolist() == [0]

    def test_unknown_strategy(self):
        # Validated before the short-circuits: a lone list, or a list and
        # an empty one, used to slip an unknown label through.
        lists = _lists(shape=(16, 16), k=1, density=0.5)
        assert len(lists[0]) > 0
        for group in (lists, lists + [TripleList.empty((16, 16))]):
            with pytest.raises(ValueError, match="unknown merge strategy"):
                spkadd_merge(group, strategy="bogus")


class TestSpkaddMerge:
    @pytest.mark.parametrize("strategy", ["serial", "tree", "hash"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_inline_bit_identical(self, strategy, k):
        lists = _lists(k=k)
        ref = merge_lists(list(lists))
        out = spkadd_merge(list(lists), strategy=strategy)
        assert_triples_equal(out, ref)

    @pytest.mark.parametrize(
        "workers", [2, 4], ids=["thread-2", "thread-4"]
    )
    @pytest.mark.parametrize("strategy", ["tree", "hash"])
    def test_executor_fanout_bit_identical(self, workers, strategy):
        # What the pool fans out is the stage's multiplies; their products
        # come back from the pool threads and are merged inline.  Merging
        # those is merging the products computed in the caller.
        from repro.parallel import get_executor
        from repro.spgemm.esc import spgemm_esc

        a_blocks = [random_csc((300, 300), 0.03, seed=60 + i) for i in range(4)]
        b_blocks = [random_csc((300, 300), 0.03, seed=70 + i) for i in range(4)]
        # Products ship in the row-major form the stage loop merges.
        ref = merge_lists([
            TripleList.from_csc(spgemm_esc(a, b).transpose(), copy=False)
            for a, b in zip(a_blocks, b_blocks)
        ])
        shipped = get_executor(workers).run_batch(
            spgemm_esc, [(a, b, True) for a, b in zip(a_blocks, b_blocks)]
        )
        lists = [
            TripleList.from_csc(product, copy=False)
            for product, _c_indptr, _per_col in shipped
        ]
        assert all(t.is_sorted() for t in lists)
        assert_triples_equal(spkadd_merge(lists, strategy=strategy), ref)

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
        out = spkadd_merge([empty, empty], strategy="hash")
        assert len(out) == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown merge strategy"):
            spkadd_merge(_lists(k=2), strategy="bogus")

    def test_slow_path_matches_fast_path(self):
        # Both sides of the engine's one selection: the compiled chain on
        # positive operands vs the stable sort any other value sends it to.
        from repro.perf import merge as perf_merge

        lists = _lists(shape=(300, 300), k=6)
        shape = lists[0].shape
        fast = perf_merge._add_chain(lists, shape)
        slow = perf_merge._sort_and_sum(lists, shape)
        for got, want in zip(slow, fast):
            assert np.array_equal(got, want)
        out = spkadd_merge(list(lists), strategy="hash")
        assert np.array_equal(out.vals, fast[2])


# ---------------------------------------------------------------------------
# The planner: size floor, budget demotion, recovery rung
# ---------------------------------------------------------------------------


class TestPlanMergeStrategy:
    def test_auto_small_input_stays_serial(self):
        total = SPKADD_MIN_ELEMENTS - 1
        assert plan_merge_strategy(total, (100, 100)) == "serial"

    def test_auto_large_input_prefers_hash(self):
        assert plan_merge_strategy(SPKADD_MIN_ELEMENTS, (100, 100)) == "hash"

    def test_budget_demotes_hash_to_tree(self):
        shape = (10_000, 10_000)  # dense table alone: 900 MB
        total = SPKADD_MIN_ELEMENTS
        budget = strategy_peak_bytes("tree", total, shape)
        assert plan_merge_strategy(
            total, shape, budget_bytes=budget
        ) == "tree"

    def test_budget_can_demote_to_serial(self):
        shape = (10_000, 10_000)
        total = SPKADD_MIN_ELEMENTS
        budget = strategy_peak_bytes("serial", total, shape)
        assert plan_merge_strategy(
            total, shape, budget_bytes=budget
        ) == "serial"

    def test_floor_is_serial_even_over_budget(self):
        assert plan_merge_strategy(
            SPKADD_MIN_ELEMENTS, (10_000, 10_000), budget_bytes=1
        ) == "serial"

    def test_rung_demotes_hash(self):
        shape = (100, 100)
        total = SPKADD_MIN_ELEMENTS
        assert plan_merge_strategy(total, shape, rung=0) == "hash"
        assert plan_merge_strategy(total, shape, rung=1) == "tree"
        assert plan_merge_strategy(total, shape, rung=2) == "serial"
        assert plan_merge_strategy(total, shape, rung=99) == "serial"

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


def _phased_engine_run(tracer=None, workers=4, phases=2, **kwargs):
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
            dist, dist, comm, SummaConfig(), phases=phases,
            workers=workers, **kwargs,
        )


class TestEngineWiring:
    def test_merge_pricing_stays_on_the_main_lane(self):
        from repro.trace import MAIN_LANE, Tracer, merge_report

        tracer = Tracer()
        res = _phased_engine_run(tracer)
        assert sum(res.merge_strategy_selections.values()) > 0
        # Workers compute whole block columns (products and their
        # numeric merge); the priced merge spans stay in the parent.
        worker_spans = {
            s.name for s in tracer.spans if s.lane != MAIN_LANE
        }
        assert "compute_column" in worker_spans
        assert not any("merge" in name for name in worker_spans)
        rep = merge_report(tracer)
        assert rep["main_seconds"] > 0
        assert 0.0 < rep["share"] <= 1.0

    def test_every_list_entering_the_merge_is_canonical(self, monkeypatch):
        # The compiled chain takes the two-pointer pass only on operands
        # sorted and duplicate-free per column; every producer in src/
        # guarantees that — in the list's own shape, which is the block's
        # transposed (products are merged row-major and the merged block
        # is transposed once).  Checked on every list of a small hipmcl run.
        import repro.summa.engine as engine
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.mcl.options import MclOptions
        from repro.nets import planted_network

        seen = []

        def checked(real):
            def merge(lists, **kwargs):
                for t in lists:
                    assert t.is_sorted()
                    assert t.shape == lists[0].shape
                    assert len(t.indptr) == t.shape[1] + 1
                    assert np.all((0 <= t.rows) & (t.rows < t.shape[0]))
                    assert t.indptr[-1] == len(t) == len(t.rows)
                    assert t.rows.dtype == t.indptr.dtype == np.int64
                    assert t.vals.dtype == np.float64
                seen.append(len(lists))
                return real(lists, **kwargs)

            return merge

        monkeypatch.setattr(engine, "merge_lists", checked(merge_lists))
        monkeypatch.setattr(engine, "spkadd_merge", checked(spkadd_merge))
        mat = planted_network(
            240, intra_degree=14.0, inter_degree=2.0, seed=9
        ).matrix
        res = hipmcl(
            mat, MclOptions(select_number=20),
            HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        )
        assert res.converged
        assert len(seen) > 100 and max(seen) >= 2

    def test_finished_blocks_release_their_merge_state(self, monkeypatch):
        # The merged row-major accumulator and the output block transposed
        # from it are different arrays: a state kept after its block is
        # finished would hold the block twice.  By the time a block column
        # reaches the prune, none of its states is alive.  The numeric
        # pass runs at full block-column width, so a two-phase multiply
        # builds one state per block and prunes each column once.
        import gc
        import weakref

        import repro.summa.engine as engine

        states, alive = weakref.WeakSet(), []
        made = [0]

        class Tracked(engine._RankMergeState):
            def __init__(self, *args):
                super().__init__(*args)
                states.add(self)
                made[0] += 1

        def prune(cols, j):
            gc.collect()
            alive.append(len(states))
            return cols

        monkeypatch.setattr(engine, "_RankMergeState", Tracked)
        _phased_engine_run(workers=1, prune_column=prune)
        assert made == [16] and alive == [0] * 4

    def test_at_most_one_block_column_of_merge_state(self, monkeypatch):
        # The numeric pass is block-major: a column's blocks are merged
        # and finished before the next column's products exist, so no
        # more than q merge states are ever alive (stage-major order
        # holds all q² of them through the phase).
        import gc
        import weakref

        import repro.summa.engine as engine

        states, peak = weakref.WeakSet(), [0]

        class Tracked(engine._RankMergeState):
            def __init__(self, *args):
                super().__init__(*args)
                gc.collect()
                states.add(self)
                peak[0] = max(peak[0], len(states))

        monkeypatch.setattr(engine, "_RankMergeState", Tracked)
        res = _phased_engine_run(workers=1, phases=1)
        assert res.dist_c.nnz > 0
        assert 1 <= peak[0] <= 4

    def test_engine_results_identical_across_workers(self):
        ref = _phased_engine_run(workers=1)
        run = _phased_engine_run(workers=4)
        assert np.array_equal(
            run.dist_c.to_global().to_dense(),
            ref.dist_c.to_global().to_dense(),
        )
        assert run.merge_strategy_selections == ref.merge_strategy_selections


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
        run = self._run(workers=2)
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
