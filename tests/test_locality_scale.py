"""Gates for the locality engine (``tier2_locality``).

Two claims with teeth:

* warm-starting from a cached clustering does less than half the work of
  a cold rerun on a localized delta — asserted on what the locality
  engine controls and what repeats exactly (dirty fraction, flops,
  simulated seconds).  The measured wall-clock speedup is evidence
  (``bench_delta_rerun`` returns it; ``locality.speedup_vs_cold`` on the
  ``delta-warm`` workload of ``bench/`` reports it at 6,400 vertices): on
  this 1,600-vertex net both runs make the same 1,024 stage products, so
  the ratio of two sub-second wall-clocks shrinks towards the ratio of
  their per-product bookkeeping whenever the kernels get faster;
* the ``community`` reordering beats ``none`` by >= 1.15x at 4 workers
  on a sweep net — this one measures parallel memory locality, so it is
  gated on having >= 4 usable cores (CI boxes with fewer skip it).  It
  uses a best-of-N attempt loop: wall-clock is noisy, and the claim is
  "the speedup is achievable", not "every sample clears the bar".
"""

import os

import pytest

from repro.bench.perfbench import bench_delta_rerun, bench_locality_cell

pytestmark = pytest.mark.tier2_locality

USABLE_CORES = len(os.sched_getaffinity(0))
needs_cores = pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"reordering sweep needs >= 4 usable cores, have {USABLE_CORES}",
)

ATTEMPTS = 3


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


@needs_cores
@pytest.mark.parametrize("net", ["eukarya-xs", "islands-xs"])
def test_community_reordering_beats_none_at_4_workers(net):
    best = 0.0
    for _ in range(ATTEMPTS):
        none = bench_locality_cell(net, "none", 4)
        community = bench_locality_cell(net, "community", 4)
        best = max(best, none["seconds"] / community["seconds"])
        if best >= 1.15:
            break
    assert best >= 1.15, (
        f"community reordering only {best:.2f}x vs none on {net} at 4 "
        f"workers (best of {ATTEMPTS})"
    )
