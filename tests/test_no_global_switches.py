"""A new process-wide knob must show up as a reviewed diff of this file."""

import re
from pathlib import Path

import repro
import repro.perf

#: Every spelling counts: reads, docstrings, error messages.
ENV_NAME = re.compile(r"REPRO_([A-Z][A-Z_]*)")


def test_environment_variables_are_pinned():
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        names |= set(ENV_NAME.findall(path.read_text()))
    assert names == {
        "WORKERS", "BACKEND", "OVERLAP", "MERGE_IMPL", "GRID", "LAYERS",
        "REORDER", "BENCH_FAST",
    }


def test_perf_package_exports_no_switch():
    assert set(repro.perf.__all__) == {"Arena", "global_arena", "memo"}
