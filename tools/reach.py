#!/usr/bin/env python
"""Census of which callers reach each function of ``src/repro``.

    python tools/reach.py

Runs four sources in this one process under a call-only trace hook, then
classes every function of the package (found by walking its ``ast``) by
the sources that called it:

* ``workloads``: each ``bench/workloads.py`` workload, set up and run
  once at seed 1;
* ``experiments``: the 15 ``repro.bench.harness`` experiments in fast
  mode, called directly.  ``pytest benchmarks`` runs them under
  pytest-benchmark's ``benchmark.pedantic``, which loses the hook, and
  rewrites ``benchmarks/results/``;
* ``examples``: each ``examples/*.py`` through ``runpy``;
* ``tests``: the tier-1 suite, in-process through pytest with
  :class:`ReachPlugin`.

The product sources run first, so a function called only while a module
is imported is charged to the first source that needed the module.

A function is ``product`` when a workload or an experiment calls it, else
``examples`` when an example does, else ``tests only`` when a test does,
else ``none``.  ``NOTES`` says why some of the non-product ones stay;
the report names any note whose key no longer names a function.

The hook (``sys.settrace`` and ``threading.settrace``) records the code
object of each new frame and returns ``None``, so no line is traced.
Code run in a child process is not recorded, nor is code on a thread
started before the hook: check a name with grep before deleting it.  The
hook slows every call, so the tests marked ``wallclock`` (they assert a
wall-clock bound) are deselected and counted in the report; the other
tests' outcomes are reported, not gated on.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

CLASSES = ("none", "tests only", "examples", "product")

#: Why a function that no workload or experiment reaches stays, keyed by
#: a dotted name or a prefix of one.
NOTES = {
    "repro.mcl.interpret": "test oracle for the run's interpretation",
    "repro.spgemm.heap.spgemm_heap": "test oracle of spgemm_esc",
    "repro.spgemm.hashspgemm.spgemm_hash": "test oracle of spgemm_esc",
    "repro.perf.esc._compress_sorted": "live branch for special inputs",
    "repro.perf.merge._sort_and_sum": "live branch for special inputs",
    "repro.merge.schedule.run_schedule": "test oracle of the merge plans",
    "repro.mcl.reference": "sequential MCL, the oracle of every hipmcl test",
    "repro.sparse.stats": "called by examples/workload_characterization.py",
    "repro.mcl.baselines": "called by examples/quality_vs_baselines.py",
    "repro.nets.rmat": "generates the inputs of ten test files",
    "repro.mcl.hipmcl.HipMCLConfig.future_gpu_estimation":
        "the paper's §VII-E configuration",
}

#: The marker of tests that assert a wall-clock bound, which the hook's
#: per-call cost would break: the census deselects them.
WALLCLOCK = "wallclock"

#: Arguments each example runs with (default: none).
EXAMPLE_ARGS = {"protein_network_io.py": ["{tmp}"]}


@dataclass(frozen=True)
class Function:
    """One ``def`` of the package."""

    name: str
    path: str
    #: The line its code object reports: the first decorator's, if any.
    first: int
    #: Its own lines, those of nested functions not counted.
    lines: int

    @property
    def key(self) -> tuple[str, int]:
        return self.path, self.first


def functions(package: Path) -> list[Function]:
    """Every function and method under ``package``, by an ``ast`` walk."""
    found = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        _walk(tree, ".".join(parts), str(path.resolve()), found)
    return found


def _walk(node, prefix: str, path: str, found: list) -> int:
    """Append the functions under ``node``; return the lines they span."""
    spanned = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            first = min(
                [child.lineno] + [d.lineno for d in child.decorator_list]
            )
            span = child.end_lineno - first + 1
            nested = _walk(child, name, path, found)
            found.append(Function(name, path, first, span - nested))
            spanned += span
        elif isinstance(child, ast.ClassDef):
            spanned += _walk(child, f"{prefix}.{child.name}", path, found)
        else:
            spanned += _walk(child, prefix, path, found)
    return spanned


def reach_class(sources: set[str]) -> str:
    if sources & {"workloads", "experiments"}:
        return "product"
    if "examples" in sources:
        return "examples"
    return "tests only" if "tests" in sources else "none"


def _names(prefix: str, name: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def note_for(name: str, notes: dict[str, str] = NOTES) -> str | None:
    for prefix, note in notes.items():
        if _names(prefix, name):
            return note
    return None


class Census:
    """The code objects each source called, and the tests' outcomes."""

    def __init__(self, package: Path = PACKAGE, notes=NOTES):
        self.package = Path(package).resolve()
        self.notes = notes
        # Walked before anything runs, so the lines match the code run.
        self.functions = functions(self.package)
        self.reached: dict[str, set[tuple[str, int]]] = {}
        #: Test node id -> "passed" / "failed" / "skipped".
        self.outcomes: dict[str, str] = {}
        #: Tests left out for their ``WALLCLOCK`` marker.
        self.deselected = 0
        self._seen: set = set()
        self._installed = False

    def _hook(self, frame, event, arg):
        self._seen.add(frame.f_code)

    @contextlib.contextmanager
    def recording(self, source: str):
        """Charge every call made inside the block to ``source``."""
        if not self._installed:
            # Once per process: threads started under the hook keep it,
            # so calls they make later go to whichever source is current.
            sys.settrace(self._hook)
            threading.settrace(self._hook)
            self._installed = True
        self._seen = seen = set()
        try:
            yield
        finally:
            # A pool thread may still call in: give it a sink of its own.
            self._seen = set()
            self.reached.setdefault(source, set()).update(self._keys(seen))

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)
        self._installed = False

    def _keys(self, codes) -> set[tuple[str, int]]:
        root = str(self.package) + os.sep
        resolved: dict[str, str] = {}
        keys = set()
        for code in codes:
            name = code.co_filename
            if name not in resolved:
                resolved[name] = str(Path(name).resolve())
            if resolved[name].startswith(root):
                keys.add((resolved[name], code.co_firstlineno))
        return keys

    def run_tests(self, args: list[str]) -> int:
        """Run pytest on ``args`` in-process, recording source ``tests``."""
        import pytest

        with self.recording("tests"):
            return pytest.main(
                ["-q", "-p", "no:cacheprovider", "-m", f"not {WALLCLOCK}",
                 *args],
                plugins=[ReachPlugin(self)],
            )

    def classify(self) -> dict[str, list[Function]]:
        """Each reach class's functions."""
        by_class = {c: [] for c in CLASSES}
        for fn in self.functions:
            sources = {s for s, keys in self.reached.items() if fn.key in keys}
            by_class[reach_class(sources)].append(fn)
        return by_class

    def stale_notes(self) -> list[str]:
        """The ``notes`` keys that name no function of the package: what
        they kept was deleted or renamed."""
        return sorted(
            key for key in self.notes
            if not any(_names(key, fn.name) for fn in self.functions)
        )

    def report(self) -> str:
        by_class = self.classify()
        out = io.StringIO()
        counts = collections.Counter(self.outcomes.values())
        print("tests: " + (", ".join(
            f"{n} {o}" for o, n in sorted(counts.items())) or "not run"),
            file=out)
        for nodeid, outcome in sorted(self.outcomes.items()):
            if outcome == "failed":
                print(f"  failed under the hook: {nodeid}", file=out)
        print(f"{WALLCLOCK} tests deselected: {self.deselected}", file=out)
        print("child processes are not recorded", file=out)
        for key in self.stale_notes():
            print(f"stale note, names no function: {key}", file=out)
        print(f"\n{'reach':<12}{'functions':>10}{'lines':>8}", file=out)
        for cls in CLASSES:
            fns = by_class[cls]
            print(f"{cls:<12}{len(fns):>10}"
                  f"{sum(f.lines for f in fns):>8}", file=out)
        for cls in CLASSES[:-1]:
            print(f"\n## {cls}", file=out)
            for fn in sorted(by_class[cls], key=lambda f: f.name):
                note = note_for(fn.name, self.notes)
                print(f"{fn.lines:>5}  {fn.name}"
                      + (f"  [keep: {note}]" if note else ""), file=out)
        return out.getvalue()


class ReachPlugin:
    """pytest plugin: records each test's outcome in a :class:`Census`.

    Pass it to ``pytest.main(plugins=[...])`` inside
    ``Census.recording("tests")``, as :meth:`Census.run_tests` does.
    """

    def __init__(self, census: Census):
        self.census = census

    def pytest_deselected(self, items):
        self.census.deselected += len(items)

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or not report.passed:
            self.census.outcomes[report.nodeid] = report.outcome


def run_workloads(census: Census) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    from repro.parallel import shutdown_executors

    with census.recording("workloads"):
        for workload in workloads.WORKLOADS.values():
            print(f"workload {workload.name}", flush=True)
            workload.setup(1, False).run()
        shutdown_executors()


def run_experiments(census: Census) -> None:
    # FAST is read at import: import the harness afresh in fast mode,
    # then drop it so the tests import it under the caller's environment.
    old = os.environ.get("REPRO_BENCH_FAST")
    os.environ["REPRO_BENCH_FAST"] = "1"
    sys.modules.pop("repro.bench.harness", None)
    try:
        with census.recording("experiments"):
            harness = importlib.import_module("repro.bench.harness")
            for name, experiment in harness.ALL_EXPERIMENTS.items():
                print(f"experiment {name}", flush=True)
                experiment()
    finally:
        if old is None:
            del os.environ["REPRO_BENCH_FAST"]
        else:
            os.environ["REPRO_BENCH_FAST"] = old
        sys.modules.pop("repro.bench.harness", None)


def run_examples(census: Census) -> None:
    old_argv = sys.argv
    with tempfile.TemporaryDirectory() as tmp, \
            census.recording("examples"):
        for path in sorted((ROOT / "examples").glob("*.py")):
            print(f"example {path.name}", flush=True)
            args = [a.format(tmp=tmp)
                    for a in EXAMPLE_ARGS.get(path.name, [])]
            sys.argv = [str(path), *args]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = old_argv


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    census = Census()
    try:
        run_workloads(census)
        run_experiments(census)
        run_examples(census)
        census.run_tests([str(ROOT / "tests")])
    finally:
        census.uninstall()
    print(census.report())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
