#!/usr/bin/env python
"""Run the tier-1 test suite under coverage.py with a committed floor.

The gate watches the execution-backend subsystems — ``src/repro/parallel/``,
``src/repro/summa/`` (including ``repro.summa.engine3d``, the grid
charge model every expansion runs through — the 2-D grid is its one-layer
case, ``--grid 3d`` its layered one — and its hybrid transport selector),
``src/repro/trace/``, ``src/repro/merge/``,
``src/repro/service/``, ``src/repro/mpi/`` and ``src/repro/locality/``
(the incremental warm-start engine) — because
those are the layers where an untested branch means a silently wrong
schedule (or a silently wrong merge, a silently lost job, a silently
uncharged link, a transport decision charged to the wrong clocks, or a
stale clustering served as fresh) rather than a loud crash.  The
source list and the ``fail_under`` floor are committed in
``pyproject.toml`` under ``[tool.coverage.run]`` / ``[tool.coverage.report]``;
this script just drives the run:

    PYTHONPATH=src python tools/run_coverage.py

Exit codes: 0 coverage >= floor and tests green; 1 tests failed;
2 coverage below the floor; 3 coverage.py is not installed (install the
``coverage`` extra: ``pip install -e '.[coverage]'``).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fail-under", type=float, default=None, metavar="PCT",
        help="override the committed floor from pyproject.toml",
    )
    parser.add_argument(
        "--html", action="store_true",
        help="also write an HTML report to htmlcov/",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest (default: -x -q tier 1)",
    )
    args = parser.parse_args(argv)

    if importlib.util.find_spec("coverage") is None:
        print(
            "coverage.py is not installed in this environment; install the "
            "'coverage' extra (pip install -e '.[coverage]') to run the "
            "coverage gate",
            file=sys.stderr,
        )
        return 3

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )

    pytest_args = args.pytest_args or ["-x", "-q"]
    run = subprocess.run(
        [sys.executable, "-m", "coverage", "run", "-m", "pytest",
         *pytest_args],
        cwd=ROOT,
        env=env,
    )
    if run.returncode != 0:
        print("coverage gate: test run failed", file=sys.stderr)
        return 1

    report_cmd = [sys.executable, "-m", "coverage", "report"]
    if args.fail_under is not None:
        report_cmd.append(f"--fail-under={args.fail_under}")
    report = subprocess.run(report_cmd, cwd=ROOT, env=env)
    if args.html:
        subprocess.run(
            [sys.executable, "-m", "coverage", "html"], cwd=ROOT, env=env
        )
        print(f"HTML report: {ROOT / 'htmlcov' / 'index.html'}")
    if report.returncode != 0:
        print(
            "coverage gate: repro.parallel/repro.summa/repro.trace/"
            "repro.merge/repro.service/repro.mpi/repro.locality coverage "
            "is below the committed "
            "floor (see [tool.coverage.report] in pyproject.toml)",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
