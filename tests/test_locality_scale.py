"""Gate for the warm start (``tier2_locality``).

Warm-starting from a cached clustering does less than half the work of a
cold rerun on a localized delta — asserted on what the warm start
controls and what repeats exactly (dirty fraction, flops, simulated
seconds).  The measured wall-clock speedup is evidence
(``bench_delta_rerun`` returns it; ``locality.speedup_vs_cold`` on the
``delta-warm`` workload of ``bench/`` reports it at 6,400 vertices): on
this 1,600-vertex net both runs make the same 1,024 stage products, so
the ratio of two sub-second wall-clocks shrinks towards the ratio of
their per-product bookkeeping whenever the kernels get faster.
"""

import pytest

from repro.bench.perfbench import bench_delta_rerun

pytestmark = pytest.mark.tier2_locality


def test_warm_start_beats_cold_rerun_2x():
    row = bench_delta_rerun()
    cold, warm = row["cold"], row["warm"]
    assert warm["dirty_fraction"] < 0.5
    assert cold["flops"] >= 2.0 * warm["flops"], (
        f"warm start does {warm['flops']} flops, cold rerun {cold['flops']}"
    )
    assert cold["sim_seconds"] >= 2.0 * warm["sim_seconds"], (
        f"warm start takes {warm['sim_seconds']:.6f} simulated seconds, "
        f"cold rerun {cold['sim_seconds']:.6f}"
    )
