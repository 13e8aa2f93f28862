"""``tools/reach.py`` classes a function by the sources that call it."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_census_classes_tests_only_and_none(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent("""
        def called():
            return 1


        def uncalled():
            return 2
    """))
    test_file = tmp_path / "test_mod.py"
    test_file.write_text(textwrap.dedent("""
        import pytest

        from pkg.mod import called, uncalled


        def test_called():
            assert called() == 1


        @pytest.mark.wallclock
        def test_deselected():
            assert uncalled() == 2
    """))
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nmarkers =\n    wallclock: a wall-clock bound\n"
    )
    # The census hooks the interpreter it runs in, so it gets its own.
    script = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(ROOT / "tools")!r}, {str(tmp_path)!r}]
        import reach
        census = reach.Census(
            {str(pkg)!r}, notes={{"pkg.mod.called": "kept", "pkg.gone": "x"}}
        )
        census.run_tests([{str(test_file)!r}])
        census.uninstall()
        print("outcomes", sorted(census.outcomes.values()))
        print(census.report())
        for cls, fns in census.classify().items():
            for fn in fns:
                print(f"{{cls}}: {{fn.name}}")
    """)
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "outcomes ['passed']" in lines
    assert "wallclock tests deselected: 1" in lines
    assert "tests only: pkg.mod.called" in lines
    assert "none: pkg.mod.uncalled" in lines
    # A note whose key names no function is reported as stale.
    assert "stale note, names no function: pkg.gone" in lines
    assert not any("stale note" in line and "called" in line for line in lines)
