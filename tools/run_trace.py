#!/usr/bin/env python
"""Run a network under the observability tracer and export the timeline.

The quickest route to a Perfetto-loadable trace of a simulated HipMCL
run:

    PYTHONPATH=src python tools/run_trace.py eukarya-xs \
        --workers 2 \
        --trace trace.json --metrics metrics.ndjson

The positional argument is a catalog network name (``archaea-xs``,
``eukarya-xs``, ...) or a path to a MatrixMarket ``.mtx`` file.  The
``phased-static3d`` benchmark workload's configuration is

    PYTHONPATH=src python tools/run_trace.py eukarya-xs --budget 524288 \
        --schedule static --grid 3d --transport hybrid

The script runs the optimized HipMCL configuration with tracing on,
writes the requested artifacts, and prints the text summary (per-category span
totals, worker lanes, link overlap evidence, the merge phase's wall-clock
share, counters) so no viewer is needed for a first look.  Load the JSON
at https://ui.perfetto.dev for the full
timeline — worker lanes under pid "wall clock", the modeled machine's
view under pid "simulated clock".

See ``docs/observability.md`` for the span model and metrics schema.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "network",
        help="catalog network name (archaea-xs, ...) or a .mtx file path",
    )
    parser.add_argument(
        "--nodes", type=int, default=16,
        help="virtual node count (perfect square; default 16)",
    )
    parser.add_argument(
        "--mode", choices=["optimized", "original", "cpu"],
        default="optimized",
    )
    parser.add_argument(
        "--workers", default=None, metavar="N",
        help="threads for the wall-clock execution, the caller being one "
        "of them ('auto' = one per core; default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--schedule", choices=["sync", "static"], default="sync",
        help="expansion schedule: 'static' posts async double-buffered "
        "broadcasts on per-row/column links and overlaps the per-column "
        "prune with the next phase's broadcasts (changes simulated time)",
    )
    parser.add_argument(
        "--grid", choices=["2d", "3d"], default="2d",
        help="process grid the simulated clocks are charged on: the "
        "sqrt(P) x sqrt(P) SUMMA grid or the split-3D grid (changes "
        "simulated time, not results)",
    )
    parser.add_argument(
        "--transport", choices=["broadcast", "p2p", "hybrid"],
        default="hybrid",
        help="B-side transport of the 3D grid (ignored on the 2d grid)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write the Chrome trace-event JSON here",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="write the NDJSON metrics stream here",
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="BYTES",
        help="override the per-process memory budget (bytes); squeezing "
        "it forces multi-phase expansions, where the static schedule's "
        "prune/broadcast overlap becomes visible",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.mcl.hipmcl import HipMCLConfig, hipmcl
    from repro.trace import (
        Tracer,
        summarize,
        write_chrome_trace,
        write_metrics,
    )

    if args.network.endswith(".mtx"):
        from repro.sparse import read_matrix_market

        matrix = read_matrix_market(args.network)
        options = None
        budget = {}
    else:
        from repro.nets import catalog

        entry = catalog.entry(args.network)
        matrix = entry.generate(seed=args.seed).matrix
        options = entry.options()
        budget = {"memory_budget_bytes": entry.memory_budget_bytes}
    if args.budget is not None:
        budget = {"memory_budget_bytes": args.budget}

    cfg = {
        "optimized": HipMCLConfig.optimized,
        "original": HipMCLConfig.original,
        "cpu": HipMCLConfig.optimized_cpu,
    }[args.mode](
        nodes=args.nodes, schedule=args.schedule, grid=args.grid,
        transport=args.transport, **budget,
    )

    tracer = Tracer()
    t0 = time.perf_counter()
    res = hipmcl(
        matrix, options, cfg,
        trace=tracer,
        workers=args.workers,
    )
    wall = time.perf_counter() - t0

    print(
        f"{args.network}: {res.n_clusters} clusters in {res.iterations} "
        f"iterations (converged={res.converged}), "
        f"{res.elapsed_seconds:.4f} simulated s, {wall:.2f} wall s"
    )
    if args.schedule == "static":
        print(
            f"static schedule: {res.bcast_overlap_seconds * 1e3:.2f}ms "
            f"broadcast/compute overlap, "
            f"{res.prune_bcast_overlap_seconds * 1e3:.2f}ms prune/broadcast "
            f"overlap, {res.link_busy_seconds * 1e3:.2f}ms link busy "
            "(simulated)"
        )
    if args.grid == "3d":
        picks = ", ".join(
            f"{k} {v}" for k, v in sorted(res.transport_selections.items())
        )
        print(
            f"3d grid: {res.layers} layers, {args.transport} transport "
            f"({picks or 'no selections'})"
        )
    print()
    print(summarize(tracer))
    if args.trace:
        n = write_chrome_trace(tracer, args.trace)
        print(f"\nwrote {args.trace}: {n} events (load in Perfetto)")
    if args.metrics:
        n = write_metrics(tracer, args.metrics)
        print(f"wrote {args.metrics}: {n} metric lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
