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
from repro.sparse import _compressed as _c
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
        from repro.perf.esc import sort_rows
        from repro.spgemm.esc import spgemm_esc

        a_blocks = [random_csc((300, 300), 0.03, seed=60 + i) for i in range(4)]
        b_blocks = [random_csc((300, 300), 0.03, seed=70 + i) for i in range(4)]
        ref = merge_lists([
            TripleList.from_csc(spgemm_esc(a, b), copy=False)
            for a, b in zip(a_blocks, b_blocks)
        ])
        # Products ship in the kernel order the stage loop merges.
        shipped = get_executor(workers).run_batch(
            spgemm_esc, [(a, b, True) for a, b in zip(a_blocks, b_blocks)]
        )
        lists = [
            TripleList.from_csc(product, copy=False)
            for product, _per_col in shipped
        ]
        assert not all(t.is_sorted() for t in lists)
        merged = spkadd_merge(lists, strategy=strategy)
        assert_triples_equal(
            TripleList.from_csc(sort_rows(merged.to_csc()), copy=False), ref
        )

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


def _planted_matrix():
    from repro.nets import planted_network

    return planted_network(
        240, intra_degree=14.0, inter_degree=2.0, seed=9
    ).matrix


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

    def test_every_list_entering_the_merge_is_duplicate_free(
        self, monkeypatch
    ):
        # Stage products enter the merge in the order the kernel wrote
        # them, and merge outputs in the order the addition wrote them:
        # the rows of a column are not sorted, and the compiled chain
        # needs only that no coordinate is stored twice in a column.
        # Checked on every list of a small hipmcl run, together with the
        # structure the compiled code trusts without checking.
        import repro.summa.engine as engine
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.mcl.options import MclOptions

        seen, unsorted = [], [0]

        def checked(real):
            def merge(lists, **kwargs):
                for t in lists:
                    key = t.cols * np.int64(t.shape[0]) + t.rows
                    assert len(np.unique(key)) == len(t)
                    unsorted[0] += not t.is_sorted()
                    assert t.shape == lists[0].shape
                    assert len(t.indptr) == t.shape[1] + 1
                    assert np.all(np.diff(t.indptr) >= 0)
                    assert np.all((0 <= t.rows) & (t.rows < t.shape[0]))
                    assert t.indptr[-1] == len(t) == len(t.rows)
                    assert t.rows.dtype == t.indptr.dtype == _c.INDEX_DTYPE
                    assert t.vals.dtype == np.float64
                seen.append(len(lists))
                return real(lists, **kwargs)

            return merge

        monkeypatch.setattr(engine, "merge_lists", checked(merge_lists))
        monkeypatch.setattr(engine, "spkadd_merge", checked(spkadd_merge))
        res = hipmcl(
            _planted_matrix(), MclOptions(select_number=20),
            HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        )
        assert res.converged
        assert len(seen) > 100 and max(seen) >= 2
        assert unsorted[0] > 0

    @pytest.mark.parametrize("recover", [0, 4], ids=["select", "recover"])
    def test_every_block_leaving_the_numeric_pass_is_canonical(
        self, monkeypatch, recover
    ):
        # Sorting happens once per block, after the prune: every block of
        # every multiply's ``dist_c`` and every block handed to the
        # inflation is sorted, under the §II prune and under the
        # recovery prune alike.
        import importlib

        from repro.mcl.options import MclOptions

        driver = importlib.import_module("repro.mcl.hipmcl")

        real_multiply = driver.summa_multiply
        real_inflate = driver.inflate_block_column
        counts = {"dist_c": 0, "inflate": 0}

        def multiply(*args, **kwargs):
            res = real_multiply(*args, **kwargs)
            for blk in res.dist_c.blocks.values():
                assert TripleList.from_csc(blk, copy=False).is_sorted()
                counts["dist_c"] += 1
            return res

        def inflate(cols, *args):
            for blk in cols:
                assert TripleList.from_csc(blk, copy=False).is_sorted()
                counts["inflate"] += 1
            return real_inflate(cols, *args)

        monkeypatch.setattr(driver, "summa_multiply", multiply)
        monkeypatch.setattr(driver, "inflate_block_column", inflate)
        res = driver.hipmcl(
            _planted_matrix(),
            MclOptions(select_number=20, recover_number=recover),
            driver.HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        )
        assert res.converged
        assert counts["dist_c"] > 16 and counts["inflate"] > 16

    @pytest.mark.parametrize("recover", [0, 4], ids=["select", "recover"])
    def test_each_block_is_sorted_once(self, monkeypatch, recover):
        # ``prune_column`` returns canonical blocks, so the engine sorts
        # none of them: the §II prune sorts what it keeps, the recovery
        # prune sorts its input and splits a canonical slab.  Either way a
        # multiply sorts each of its q² blocks exactly once.
        import importlib

        import repro.summa.engine as engine
        from repro.mcl.options import MclOptions

        hipmcl_mod = importlib.import_module("repro.mcl.hipmcl")
        calls = {"engine": 0, "prune": 0}

        def counting(where, real):
            def sort_rows(m):
                calls[where] += 1
                return real(m)

            return sort_rows

        monkeypatch.setattr(
            engine, "sort_rows", counting("engine", engine.sort_rows)
        )
        monkeypatch.setattr(
            hipmcl_mod, "sort_rows", counting("prune", hipmcl_mod.sort_rows)
        )
        res = hipmcl_mod.hipmcl(
            _planted_matrix(),
            MclOptions(select_number=20, recover_number=recover),
            hipmcl_mod.HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        )
        assert res.converged
        assert calls == {"engine": 0, "prune": 16 * res.iterations}

    def test_without_a_prune_the_engine_sorts(self, monkeypatch):
        import repro.summa.engine as engine
        from repro.machine.spec import SUMMIT_LIKE
        from repro.mpi import ProcessGrid, VirtualComm
        from repro.summa import DistributedCSC, SummaConfig, summa_multiply

        real, calls = engine.sort_rows, [0]

        def sort_rows(m):
            calls[0] += 1
            return real(m)

        monkeypatch.setattr(engine, "sort_rows", sort_rows)
        dist = DistributedCSC.from_global(_planted_matrix(), ProcessGrid(4))
        res = summa_multiply(
            dist, dist, VirtualComm(16, SUMMIT_LIKE), SummaConfig()
        )
        assert calls == [16]
        for blk in res.dist_c.blocks.values():
            assert TripleList.from_csc(blk, copy=False).is_sorted()

    def test_no_block_of_a_run_carries_int64_indices(self, monkeypatch):
        # Every array a run builds is born int32, so the constructor
        # converts nothing: the stage products, the blocks leaving the
        # numeric pass, and the slab and row blocks of the inflation.
        import importlib

        import repro.summa.engine as engine
        from repro.mcl.options import MclOptions

        hipmcl_mod = importlib.import_module("repro.mcl.hipmcl")
        real_pass = engine._numeric_pass
        real_inflate = hipmcl_mod.inflate_block_column
        seen = {"pass": 0, "inflate": 0}

        def index_arrays(blk):
            return (blk.indptr, blk.indices)

        def numeric_pass(*args, **kwargs):
            kept, products, blocks = real_pass(*args, **kwargs)
            for blk in kept.values():
                for arr in index_arrays(blk):
                    assert arr.dtype == _c.INDEX_DTYPE
                seen["pass"] += 1
            for _per_col, c_indptr, _events in products.values():
                assert c_indptr.dtype == _c.INDEX_DTYPE
            return kept, products, blocks

        def inflate(cols, *args):
            slab, blocks = real_inflate(cols, *args)
            for blk in [slab, *blocks]:
                for arr in index_arrays(blk):
                    assert arr.dtype == _c.INDEX_DTYPE
                seen["inflate"] += 1
            return slab, blocks

        monkeypatch.setattr(engine, "_numeric_pass", numeric_pass)
        monkeypatch.setattr(hipmcl_mod, "inflate_block_column", inflate)
        res = hipmcl_mod.hipmcl(
            _planted_matrix(), MclOptions(select_number=20),
            hipmcl_mod.HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
        )
        assert res.converged
        assert seen["pass"] > 16 and seen["inflate"] > 16

    def test_finished_blocks_release_their_merge_state(self, monkeypatch):
        # A merge state holds the lists its schedule has buffered: one
        # kept after its block is finished would keep them resident.  By
        # the time a block column reaches the prune, none of its states is
        # alive.  The numeric
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
