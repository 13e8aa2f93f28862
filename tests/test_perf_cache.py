"""The perf subsystem's contracts: caches, arena, bench compare."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.perfbench import (
    BaselineError,
    Comparison,
    compare_reports,
    load_baseline,
    regressions,
    validate_report,
)
from repro.perf.arena import Arena
from repro.perf.cache import memo
from repro.sparse import CSCMatrix, random_csc


# ---------------------------------------------------------------------------
# Instance caches on CSCMatrix
# ---------------------------------------------------------------------------


def test_column_lengths_cached_and_read_only():
    mat = random_csc((40, 30), 0.1, seed=1)
    lens = mat.column_lengths()
    assert lens is mat.column_lengths()  # same object: cached
    assert not lens.flags.writeable
    with pytest.raises(ValueError):
        lens[0] = 99
    assert np.array_equal(lens, np.diff(mat.indptr))


def test_min_value_cached_and_total():
    mat = random_csc((40, 30), 0.1, seed=1)
    assert mat.min_value() == mat.data.min() > 0
    mat.data[0] = -3.0  # surgery without invalidation: the stale answer
    assert mat.min_value() > 0
    assert CSCMatrix.empty((3, 4)).min_value() == np.inf
    with_nan = CSCMatrix((1, 2), [0, 1, 2], [0, 0], [np.nan, 1.0])
    assert np.isnan(with_nan.min_value())
    assert np.signbit(CSCMatrix((1, 1), [0, 1], [0], [-0.0]).min_value())


def test_invalidate_caches_resets_lengths_and_memo():
    mat = random_csc((40, 30), 0.1, seed=2)
    lens = mat.column_lengths()
    calls = []
    assert memo(mat, "k", lambda: calls.append(1) or "v") == "v"
    mat.invalidate_caches()
    assert mat.column_lengths() is not lens
    memo(mat, "k", lambda: calls.append(1) or "v")
    assert len(calls) == 2  # rebuilt after invalidation


def test_memo_builds_once_per_key():
    mat = random_csc((20, 20), 0.1, seed=3)
    calls = []

    def build():
        calls.append(1)
        return {"x": 1}

    first = memo(mat, ("slab", 0, 5), build)
    again = memo(mat, ("slab", 0, 5), build)
    other = memo(mat, ("slab", 5, 9), build)
    assert first is again
    assert other is not first
    assert len(calls) == 2


class TestMutationPathsInvalidateCaches:
    """Audit of the immutable-after-construction contract.

    Every supported way of changing what a ``CSCMatrix`` holds must leave
    ``column_lengths()`` (and the memo) consistent: in-place array surgery
    must go through ``invalidate_caches()``, and every deriving method
    must return an instance whose caches start empty.
    """

    def _primed(self, seed=10):
        mat = random_csc((30, 24), 0.15, seed=seed)
        lens = mat.column_lengths()
        memo(mat, "probe", lambda: "stale")
        return mat, lens

    def test_inplace_data_surgery(self):
        mat, _ = self._primed()
        assert mat.min_value() > 0
        mat.data[:] = 2.0
        mat.data[0] = -1.0
        mat.invalidate_caches()
        assert memo(mat, "probe", lambda: "fresh") == "fresh"
        # The multiply sizes an unchecked write from this: never stale.
        assert mat.min_value() == -1.0

    def test_inplace_indptr_surgery(self):
        mat, lens = self._primed()
        # Drop the last column's entries by closing its indptr window.
        mat.indptr[-1] = mat.indptr[-2]
        mat.invalidate_caches()
        fresh = mat.column_lengths()
        assert fresh is not lens
        assert fresh[-1] == 0
        assert np.array_equal(fresh, np.diff(mat.indptr))
        assert memo(mat, "probe", lambda: "fresh") == "fresh"

    def test_inplace_indices_surgery(self):
        mat, lens = self._primed()
        if mat.nnz:
            mat.indices[0] = (mat.indices[0] + 1) % mat.nrows
        mat.invalidate_caches()
        assert mat.column_lengths() is not lens
        assert memo(mat, "probe", lambda: "fresh") == "fresh"

    @pytest.mark.parametrize(
        "derive",
        [
            lambda m: m.copy(),
            lambda m: m.sorted(),
            lambda m: m.sum_duplicates(),
            lambda m: m.pruned_zeros(),
            lambda m: m.transpose(),
            lambda m: m.column_slab(0, m.ncols // 2),
            lambda m: m.scale_columns(np.ones(m.ncols)),
        ],
        ids=["copy", "sorted", "sum_duplicates", "pruned_zeros",
             "transpose", "column_slab", "scale_columns"],
    )
    def test_deriving_methods_start_with_empty_caches(self, derive):
        mat, _ = self._primed()
        out = derive(mat)
        assert out._lens is None
        assert out._memo is None
        assert np.array_equal(out.column_lengths(), np.diff(out.indptr))
        # The derived instance's memo is independent of the parent's.
        assert memo(out, "probe", lambda: "fresh") == "fresh"
        assert memo(mat, "probe", lambda: "never") == "stale"


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------


def test_arena_buffers_grow_and_are_reused():
    arena = Arena()
    b1 = arena.buffer("w", 100, np.float64)
    assert len(b1) == 100
    b2 = arena.buffer("w", 50, np.float64)
    assert b2.base is b1 or b2.base is b1.base  # view of the same storage
    big = arena.buffer("w", 10_000, np.float64)
    assert len(big) == 10_000


def test_arena_reallocates_on_dtype_change():
    arena = Arena()
    arena.buffer("w", 10, np.float64)
    b = arena.buffer("w", 10, np.int64)
    assert b.dtype == np.int64
    assert len(b) == 10


def test_arena_flags_all_false_invariant():
    arena = Arena()
    flags = arena.flags("f", 64)
    assert not flags.any()
    flags[[3, 9]] = True
    flags[[3, 9]] = False  # caller restores, as the kernels do
    again = arena.flags("f", 32)
    assert not again.any()


def test_arena_release_drops_buffers():
    arena = Arena()
    arena.buffer("w", 10, np.float64)
    arena.release()
    fresh = arena.buffer("w", 10, np.float64)
    assert len(fresh) == 10


# ---------------------------------------------------------------------------
# Perfbench comparison logic (no timing involved)
# ---------------------------------------------------------------------------


def _report(e2e, micro):
    return {
        "end_to_end": {k: {"seconds": v} for k, v in e2e.items()},
        "micro": {k: {"seconds": v} for k, v in micro.items()},
    }


def test_compare_reports_pairs_by_name():
    base = _report({"net": 1.0}, {"esc": 0.010, "hash": 0.020})
    cur = _report({"net": 1.1}, {"esc": 0.014, "gone": 0.5})
    # A section the current run did not measure at all stays quiet; a
    # baseline cell gone from a measured section is skipped with a warning.
    base["merge_sweep"] = {"k4-uniform-w4": {"seconds": 0.1}}
    warnings = []
    rows = {
        c.name: c for c in compare_reports(cur, base, warn=warnings.append)
    }
    assert set(rows) == {"end_to_end/net", "micro/esc"}
    assert rows["micro/esc"].ratio == pytest.approx(1.4)
    assert len(warnings) == 1 and "'micro/hash'" in warnings[0]
    cur["merge_sweep"] = {"k4-uniform-w1": {"seconds": 0.1}}
    compare_reports(cur, base, warn=warnings.append)
    assert "'merge_sweep/k4-uniform-w4'" in warnings[-1]


def test_regressions_respect_tolerance():
    base = _report({"net": 1.0}, {"esc": 0.010})
    cur = _report({"net": 1.2}, {"esc": 0.011})
    assert [c.name for c in regressions(cur, base, tolerance=0.25)] == []
    bad = regressions(cur, base, tolerance=0.15)
    assert [c.name for c in bad] == ["end_to_end/net"]
    assert bad[0].regressed(0.15)


def test_comparison_handles_zero_baseline():
    c = Comparison("x", 0.0, 0.5)
    assert c.regressed(0.25)


def test_schema3_scaling_flattens_with_legacy_aliases():
    # Schema-3 per-backend scaling rows pair with a schema-2 baseline's
    # process-only names, both directions.
    from repro.bench.perfbench import validate_report

    rep3 = _report({}, {})
    rep3["schema"] = 3
    rep3["scaling"] = {
        "net": {
            "thread": {"w2": {"seconds": 2.0}},
            "process": {"w2": {"seconds": 3.0}},
        }
    }
    rep2 = _report({}, {})
    rep2["schema"] = 2
    rep2["scaling"] = {"net": {"w2": {"seconds": 4.0}}}
    assert validate_report(rep3) == [] and validate_report(rep2) == []
    rows = {c.name: c for c in compare_reports(rep3, rep2)}
    assert set(rows) == {"scaling/net/w2"}
    assert rows["scaling/net/w2"].current == 3.0  # the process rows
    # Schema-3 vs schema-3 pairs per backend.
    rows3 = {c.name: c for c in compare_reports(rep3, rep3)}
    assert "scaling/net/thread/w2" in rows3
    assert "scaling/net/process/w2" in rows3


def test_pipeline_sweep_flattens_and_validates():
    # Schema 5: pipeline_sweep cells pair by name; net names contain
    # dashes, so the cell key parses from the right ({net}-{sched}-w{N}).
    from repro.bench.perfbench import validate_report

    rep = _report({}, {})
    rep["schema"] = 5
    rep["pipeline_sweep"] = {
        "isom100-3-xs-static-w4": {"seconds": 1.5},
        "eukarya-xs-sync-w1": {"seconds": 2.0},
    }
    assert validate_report(rep) == []
    rows = {c.name: c for c in compare_reports(rep, rep)}
    assert "pipeline_sweep/isom100-3-xs-static-w4" in rows
    assert "pipeline_sweep/eukarya-xs-sync-w1" in rows
    # A schema-4 baseline without the section still pairs on the rest.
    old = _report({}, {})
    old["schema"] = 4
    assert all(
        not c.name.startswith("pipeline_sweep")
        for c in compare_reports(rep, old)
    )
    # Malformed rows are enumerated.
    rep["pipeline_sweep"]["bad-cell-w1"] = {"ms": 3}
    assert any("bad-cell-w1" in p for p in validate_report(rep))


# ---------------------------------------------------------------------------
# Baseline validation for --check (fails fast, with actionable messages)
# ---------------------------------------------------------------------------


class TestBaselineValidation:
    def _valid(self):
        return {
            "schema": 2,
            "end_to_end": {"net": {"seconds": 1.0}},
            "micro": {"esc": {"seconds": 0.01}},
            "scaling": {"net": {"w1": {"seconds": 1.0},
                                "w4": {"seconds": 0.5}}},
        }

    def test_valid_report_accepted(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(self._valid()))
        assert load_baseline(path) == self._valid()
        assert validate_report(self._valid()) == []

    def test_missing_file_names_the_fix(self, tmp_path):
        with pytest.raises(BaselineError, match="not found.*run_perfbench"):
            load_baseline(tmp_path / "absent.json")

    def test_unparseable_json_reported(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError, match="not readable JSON"):
            load_baseline(path)

    def test_schema_version_mismatch_reported(self, tmp_path):
        report = self._valid()
        report["schema"] = 99
        path = tmp_path / "old.json"
        path.write_text(json.dumps(report))
        with pytest.raises(BaselineError, match="schema version is 99"):
            load_baseline(path)

    def test_malformed_sections_enumerated(self):
        problems = validate_report(
            {"schema": 2, "end_to_end": [], "micro": {"esc": {"ms": 3}},
             "scaling": {"net": {"w2": {"ms": 3}}}}
        )
        assert any("end_to_end" in p for p in problems)
        assert any("micro/esc" in p for p in problems)
        assert any("scaling/net/w2" in p for p in problems)
        assert validate_report([1, 2]) != []

    def test_default_baseline_is_the_highest_numbered_report(self, tmp_path):
        import importlib.util

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "run_perfbench", root / "tools" / "run_perfbench.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        # Numeric, not lexicographic; stray names are ignored.
        for name in ("BENCH_PR2.json", "BENCH_PR10.json", "BENCH_PR9.json",
                     "BENCH_PRx.json", "BENCH_PR11.json.bak"):
            (tmp_path / name).write_text("{}")
        assert tool.latest_baseline(tmp_path).name == "BENCH_PR10.json"
        # The repo's own default resolves to a committed report.
        assert tool.latest_baseline().is_file()

    @pytest.mark.parametrize(
        "content,needle",
        [
            (None, "not found"),
            ("{broken", "not readable JSON"),
            ('{"schema": 99, "end_to_end": {}, "micro": {}}',
             "schema version"),
        ],
        ids=["missing", "garbage", "schema"],
    )
    def test_cli_check_fails_fast_without_traceback(
        self, tmp_path, content, needle
    ):
        baseline = tmp_path / "base.json"
        if content is not None:
            baseline.write_text(content)
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "run_perfbench.py"),
             "--check", "--baseline", str(baseline)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert needle in proc.stderr
        assert "Traceback" not in proc.stderr
        # Fails before running any benchmark (the whole point of the
        # fail-fast ordering).
        assert "end-to-end" not in proc.stdout
