"""A new process-wide knob must show up as a reviewed diff of this file."""

import os
import re
import subprocess
import sys
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


def test_importing_the_library_does_not_import_scipy():
    # ``import scipy.sparse`` costs ~0.12 s and ~15 MB in a fresh
    # interpreter — 40 % of ``setup_s`` on ``baseline-orig`` — so the one
    # kernel that uses it (``repro.perf.esc``) imports it at first call.
    src = Path(repro.__file__).parents[1]
    probe = (
        "import sys; import repro.mcl.hipmcl, repro.cli; "
        "sys.exit('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, "import repro.mcl.hipmcl pulled in scipy"
