"""The warm start does less than half the work of a cold rerun.

Warm-starting from a cached clustering does less than half the work of a
cold rerun on a localized delta — asserted on what the warm start
controls and what repeats exactly (dirty fraction, flops, simulated
seconds), never on wall-clock.  The measured speedup is evidence
(``locality.speedup_vs_cold`` on the ``delta-warm`` workload of
``bench/`` reports it at 6,400 vertices): on this 1,600-vertex net both
runs make the same 1,024 stage products, so the ratio of two sub-second
wall-clocks shrinks towards the ratio of their per-product bookkeeping
whenever the kernels get faster.
"""

import numpy as np

from repro.locality import (
    WarmStart, dirty_vertices, localized_delta, run_warm_start,
)
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import planted_network

#: Pure planted clusters, no inter-cluster edges: components are the
#: clusters, so a localized delta dirties one.
ISLANDS_NET = dict(n=1600, intra_degree=30.0, inter_degree=0.0, seed=11)

#: The localized delta: this many edges, drawn with this seed.
DELTA_RERUN_EDGES = 12
DELTA_RERUN_SEED = 5


def _delta_rerun() -> dict:
    """Cold rerun vs warm start of the islands net after a local delta.

    Each row carries the exact ``flops`` (summed over the iteration
    history) and simulated ``sim_seconds`` of its run; the warm row also
    the ``dirty_fraction`` of vertices the warm start re-clusters.
    """
    matrix = planted_network(**ISLANDS_NET).matrix
    opts = MclOptions(inflation=2.0, prune_threshold=1e-4, select_number=50)
    cfg = HipMCLConfig.optimized(nodes=16)
    base = hipmcl(matrix, opts, cfg)
    delta = localized_delta(matrix, DELTA_RERUN_EDGES, DELTA_RERUN_SEED)
    patched = delta.apply(matrix)
    warm = WarmStart(np.asarray(base.labels, dtype=np.int64), delta)
    runs = {
        "cold": hipmcl(patched, opts, cfg),
        "warm": run_warm_start(matrix, warm, opts, cfg),
    }
    rows = {
        kind: {
            "flops": sum(h.flops for h in res.history),
            "sim_seconds": float(res.elapsed_seconds),
        }
        for kind, res in runs.items()
    }
    dirty = len(dirty_vertices(patched, delta))
    rows["warm"]["dirty_fraction"] = dirty / max(1, matrix.ncols)
    return rows


def test_warm_start_beats_cold_rerun_2x():
    row = _delta_rerun()
    cold, warm = row["cold"], row["warm"]
    assert warm["dirty_fraction"] < 0.5
    assert cold["flops"] >= 2.0 * warm["flops"], (
        f"warm start does {warm['flops']} flops, cold rerun {cold['flops']}"
    )
    assert cold["sim_seconds"] >= 2.0 * warm["sim_seconds"], (
        f"warm start takes {warm['sim_seconds']:.6f} simulated seconds, "
        f"cold rerun {cold['sim_seconds']:.6f}"
    )
