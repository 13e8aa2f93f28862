"""The benchmark's import-site contract, checked in tier-1.

``bench/layers.py`` attributes time by rebinding the names in its
``WRAPS`` table at the module that calls them.  A rename, or a call site
that stops going through the bound name, would otherwise surface only in
the benchmark's traced run, minutes in.  Reads ``bench/``, edits nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.mcl.options import MclOptions
from repro.nets import planted_network

#: The driver's module (``repro.mcl.hipmcl`` the attribute is the function).
driver = importlib.import_module("repro.mcl.hipmcl")


@pytest.fixture(scope="module")
def layers():
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(layers):
    for wrap in layers.WRAPS:
        owner, name, _raw = layers._resolve(wrap)
        assert callable(getattr(owner, name)), wrap


def test_stage_products_go_through_the_wrapped_multiply(layers):
    recorder = layers.Recorder()
    mat = planted_network(
        240, intra_degree=14.0, inter_degree=2.0, seed=9
    ).matrix
    with layers.installed(recorder):
        # Through its module, like the benchmark: the driver is wrapped
        # where it is defined.
        res = driver.hipmcl(
            mat, MclOptions(select_number=20),
            driver.HipMCLConfig(nodes=16, memory_budget_bytes=64 * 1024),
            workers=1,
        )
    totals = recorder.totals()
    products = sum(res.kernel_selections.values())
    assert totals["spgemm.local"]["calls"] == products > 0
    # The names a serial run of this shape must reach.
    for span in ("mcl.driver", "mcl.prepare", "summa.multiply",
                 "merge.lists", "sparse.hstack"):
        assert totals[span]["calls"] > 0, span
