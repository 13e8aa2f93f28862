"""The multiply and the driver stay split into their steps.

ROADMAP item 3 asks that no function of the engine, the grid model or
the driver grow past about 150 lines: the multiply is its numeric pass,
its price plan and its pricing pass, and the driver is a loop over the
steps of an iteration.  A function that absorbs another's work again
fails here, with its name and length.
"""

import ast
from pathlib import Path

import pytest

import repro

MAX_LINES = 150
FILES = ("summa/engine.py", "summa/engine3d.py", "mcl/hipmcl.py")


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@pytest.mark.parametrize("name", FILES)
def test_no_function_over_150_lines(name):
    path = Path(repro.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    long = {
        f"{fn.name} (line {fn.lineno})": fn.end_lineno - fn.lineno + 1
        for fn in _functions(tree)
        if fn.end_lineno - fn.lineno + 1 > MAX_LINES
    }
    assert long == {}
