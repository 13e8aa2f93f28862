"""Wall-clock scaling acceptance of the multicore execution layer.

These tests need real cores to mean anything: on a single-core runner
the thread pool's threads take turns on the one core and can only add
overhead, so the speedup assertion is gated on
the usable-core count (and on the ``tier2_scale`` marker — select with
``-m tier2_scale`` alongside the other tier-2 wall-clock tiers).
"""

import os
import time

import pytest

from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.nets import catalog
from repro.bench.harness import load_network, options_for

USABLE_CORES = len(os.sched_getaffinity(0))

needs_cores = pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"scaling needs >= 4 usable cores, have {USABLE_CORES}",
)


def _run(net_name: str, workers: int) -> float:
    entry = catalog.entry(net_name)
    net = load_network(net_name)
    cfg = HipMCLConfig.optimized(
        nodes=16, memory_budget_bytes=entry.memory_budget_bytes
    )
    t0 = time.perf_counter()
    hipmcl(net.matrix, options_for(net_name), cfg, workers=workers)
    return time.perf_counter() - t0


@pytest.mark.tier2_scale
@pytest.mark.wallclock
@needs_cores
def test_four_workers_speed_up_isom():
    """ISSUE 3 acceptance: >= 1.5x wall-clock with 4 workers."""
    # Warm both paths once (pool spin-up, catalog caches), then keep the
    # best ratio over a few attempts — wall-clock is noisy.
    _run("isom100-3-xs", workers=4)
    best = 0.0
    for _ in range(3):
        serial = _run("isom100-3-xs", workers=1)
        par = _run("isom100-3-xs", workers=4)
        best = max(best, serial / par)
        if best >= 1.5:
            break
    assert best >= 1.5, f"4 workers only {best:.2f}x faster than serial"
