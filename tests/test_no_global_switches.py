"""A new process-wide knob must show up as a reviewed diff of this file."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.perf
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.service import JobSpec
from repro.summa import SummaConfig, summa_multiply

#: Every spelling counts: reads, docstrings, error messages.
ENV_NAME = re.compile(r"REPRO_([A-Z][A-Z_]*)")


def test_environment_variables_are_pinned():
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        names |= set(ENV_NAME.findall(path.read_text()))
    assert names == {
        "WORKERS", "GRID", "LAYERS", "BENCH_FAST",
    }


def test_driver_and_job_surfaces_are_pinned():
    keywords = [
        p.name for p in inspect.signature(hipmcl).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert keywords == [
        "strict", "faults", "resume_from", "checkpoint_dir",
        "checkpoint_every", "workers", "trace",
        "on_iteration", "warm_start",
    ]
    # A retired knob is an error, not a silently ignored keyword.
    with pytest.raises(TypeError):
        hipmcl(None, overlap=True)
    with pytest.raises(TypeError):
        hipmcl(None, backend="thread")
    with pytest.raises(TypeError):
        summa_multiply(None, None, None, None, backend="thread")
    assert [f.name for f in dataclasses.fields(JobSpec)] == [
        "graph", "mode", "nodes", "options", "config", "workers",
        "delta",
    ]
    assert [f.name for f in dataclasses.fields(HipMCLConfig)] == [
        "nodes", "spec", "kernel", "merge", "pipelined", "use_gpu",
        "estimator", "estimator_keys", "estimator_cf_threshold",
        "estimator_safety", "threaded_node", "gpus_per_node",
        "memory_budget_bytes", "seed", "schedule", "grid", "layers",
        "transport", "resilience",
    ]
    assert [f.name for f in dataclasses.fields(SummaConfig)] == [
        "spec", "kernel", "merge", "pipelined", "use_gpu",
        "gpus_per_process", "threads", "threaded_node", "trace", "schedule",
    ]


def test_perf_package_exports_no_switch():
    assert set(repro.perf.__all__) == {"Arena", "global_arena", "memo"}


def test_importing_the_library_does_not_import_scipy():
    # ``import scipy.sparse`` costs ~0.12 s and ~15 MB in a fresh
    # interpreter — 40 % of ``setup_s`` on ``baseline-orig`` — so the
    # modules that call its compiled kernels (``repro.perf.esc``,
    # ``repro.perf.merge``, ``repro.spgemm.symbolic``) import it at first
    # call.
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
