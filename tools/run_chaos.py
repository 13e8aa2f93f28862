#!/usr/bin/env python
"""Chaos sweep: verify fault recovery never changes the clustering.

Two modes share one contract — a chaos run must reproduce the fault-free
baseline bit-for-bit (labels and the numeric per-iteration trajectory —
see repro.resilience.equivalence).  Any divergence is a resilience bug.

Default mode kills *operations* inside a run (PR 2's fault injector):

    PYTHONPATH=src python tools/run_chaos.py --plans 25
    PYTHONPATH=src python tools/run_chaos.py --net eukarya-xs \\
        --plans 10 --intensity 0.5

``--service`` mode kills *workers*: each plan submits the job to a
throwaway clustering service and kill/restarts the runner at seeded
iteration boundaries until the job completes, then checks labels,
trajectory, and the exactly-once requeue accounting:

    PYTHONPATH=src python tools/run_chaos.py --service --plans 10

Exit status: 0 when every plan converges to the baseline, 1 on any
divergence, 2 on setup errors.  The same sweeps run in CI as the
``tier2_chaos`` and ``tier2_service`` pytest markers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.harness import load_network, options_for  # noqa: E402
from repro.mcl.hipmcl import HipMCLConfig, hipmcl  # noqa: E402
from repro.nets import catalog  # noqa: E402
from repro.resilience import FaultPlan, divergence  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--net", default="archaea-xs",
        help="catalog network to cluster (default archaea-xs)",
    )
    parser.add_argument(
        "--plans", type=int, default=10,
        help="number of seeded fault plans to sweep (default 10)",
    )
    parser.add_argument(
        "--seed0", type=int, default=0,
        help="first fault-plan seed (default 0)",
    )
    parser.add_argument(
        "--intensity", type=float, default=0.2,
        help="FaultPlan.chaos intensity in [0, 1] (default 0.2)",
    )
    parser.add_argument(
        "--nodes", type=int, default=16,
        help="virtual node count (perfect square, default 16)",
    )
    parser.add_argument(
        "--workers", default=None, metavar="N",
        help="workers for the faulted runs ('auto' = one per "
        "core); the baseline stays serial, so a pass also certifies the "
        "thread pool's bit-identity under fault recovery",
    )
    parser.add_argument(
        "--grid", choices=["2d", "3d"], default=None,
        help="process-grid shape for baseline and faulted runs (default: "
        "REPRO_GRID or 2d); 3d also sweeps the transport-demotion rung",
    )
    parser.add_argument(
        "--layers", default=None, metavar="C",
        help="replication factor for --grid 3d ('auto' or a square c=r^2 "
        "with r | sqrt(nodes); default auto)",
    )
    parser.add_argument(
        "--delta", type=float, default=None, metavar="FRACTION",
        help="incremental-reclustering sweep: each plan draws a seeded "
        "edge delta touching FRACTION of the edges, warm-starts from "
        "the baseline labels *under faults*, and must match a "
        "fault-free cold run on the patched graph",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="kill/restart mode: run each plan through the clustering "
        "service, killing the runner at seeded iteration boundaries and "
        "resuming from checkpoints (see docs/service.md)",
    )
    parser.add_argument(
        "--max-kills", type=int, default=8,
        help="worker deaths per service plan before chaos relents "
        "(default 8; --service only)",
    )
    args = parser.parse_args(argv)
    if args.plans < 1:
        print("error: --plans must be >= 1", file=sys.stderr)
        return 2
    try:
        entry = catalog.entry(args.net)
    except KeyError:
        names = ", ".join(sorted(catalog.CATALOG))
        print(
            f"error: unknown network {args.net!r}; one of: {names}",
            file=sys.stderr,
        )
        return 2
    net = load_network(args.net)
    opts = options_for(args.net)
    try:
        from repro.errors import GridError
        from repro.mpi.grid import resolve_grid, resolve_layers

        grid = resolve_grid(args.grid)
        layers = resolve_layers(args.layers) if grid == "3d" else 0
        cfg = HipMCLConfig.optimized(
            nodes=args.nodes, memory_budget_bytes=entry.memory_budget_bytes,
            grid=grid, layers=layers,
        )
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline = hipmcl(net.matrix, opts, cfg)
    grid_note = (
        f", 3d grid ({baseline.layers} layers)"
        if baseline.grid == "3d" else ""
    )
    print(
        f"baseline {args.net}: {baseline.n_clusters} clusters in "
        f"{baseline.iterations} iterations, "
        f"{baseline.elapsed_seconds:.4f} simulated s{grid_note}"
    )

    if args.service:
        return _service_sweep(args, entry, baseline)
    if args.delta is not None:
        return _delta_sweep(args, net, opts, cfg, baseline)

    failures = 0
    for seed in range(args.seed0, args.seed0 + args.plans):
        plan = FaultPlan.chaos(seed, intensity=args.intensity)
        res = hipmcl(
            net.matrix, opts, cfg, faults=plan, workers=args.workers
        )
        injected = sum(res.faults_injected.values())
        diffs = divergence(baseline, res)
        slowdown = (
            res.elapsed_seconds / baseline.elapsed_seconds
            if baseline.elapsed_seconds
            else 1.0
        )
        status = "ok" if not diffs else "DIVERGED"
        print(
            f"plan seed={seed}: {injected} faults injected "
            f"({res.comm_retries} retries, {res.straggler_events} "
            f"stragglers, {res.gpu_fallbacks + res.kernel_demotions} "
            f"demotions, {res.estimator_fallbacks} estimator fallbacks, "
            f"{res.phase_split_retries} phase splits, "
            f"{res.transport_demotions} transport demotions), "
            f"x{slowdown:.2f} simulated time ... {status}"
        )
        if diffs:
            failures += 1
            for d in diffs:
                print(f"    {d}")
    if failures:
        print(
            f"FAIL: {failures}/{args.plans} fault plans diverged from the "
            "fault-free baseline",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {args.plans} fault plans, all bit-identical to baseline")
    return 0


def _delta_sweep(args, net, opts, cfg, baseline) -> int:
    """Warm-start-under-faults sweep.

    Per plan: a seeded edge delta patches the graph; the reference is a
    *fault-free cold* run on the patched graph; the subject warm-starts
    from the unpatched baseline's labels with the plan's faults (and
    ``--workers``, when given) armed.  Labels must match
    bit-for-bit — trajectories are not compared (the warm run's history
    covers only the dirty components).
    """
    import numpy as np

    from repro.locality import WarmStart, random_delta

    base_labels = np.asarray(baseline.labels, dtype=np.int64)
    failures = 0
    for seed in range(args.seed0, args.seed0 + args.plans):
        delta = random_delta(net.matrix, args.delta, seed)
        cold = hipmcl(delta.apply(net.matrix), opts, cfg)
        plan = FaultPlan.chaos(seed, intensity=args.intensity)
        warm = hipmcl(
            net.matrix, opts, cfg,
            warm_start=WarmStart(base_labels, delta),
            faults=plan, workers=args.workers,
        )
        injected = sum(warm.faults_injected.values())
        same = np.array_equal(np.asarray(warm.labels), np.asarray(cold.labels))
        status = "ok" if same else "DIVERGED"
        print(
            f"plan seed={seed}: delta {delta.num_edges} edges, "
            f"{injected} faults injected, warm {warm.iterations} iters "
            f"vs cold {cold.iterations} ... {status}"
        )
        if not same:
            failures += 1
            print("    warm-start labels differ from the cold patched run")
    if failures:
        print(
            f"FAIL: {failures}/{args.plans} delta plans diverged from "
            "their cold patched baselines",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {args.plans} delta plans, warm-start labels all match the "
        "cold patched runs"
    )
    return 0


def _service_sweep(args, entry, baseline) -> int:
    """Kill/restart sweep: every plan's job must finish bit-identical."""
    import tempfile

    import numpy as np

    from repro.resilience.equivalence import TRAJECTORY_FIELDS, trajectory
    from repro.service import ClusterService, JobSpec, KillPlan
    from repro.service import chaos_service_run

    class FakeClock:
        def __init__(self):
            self.now = 1000.0

        def __call__(self):
            return self.now

        def advance(self, seconds):
            self.now += seconds

    from dataclasses import asdict

    spec = JobSpec(
        graph=f"catalog:{args.net}",
        mode="optimized",
        nodes=args.nodes,
        options=asdict(options_for(args.net)),
        config={"memory_budget_bytes": entry.memory_budget_bytes},
        workers=args.workers,
    )
    base_traj = trajectory(baseline)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-svc-") as tmp:
        for seed in range(args.seed0, args.seed0 + args.plans):
            clock = FakeClock()
            service = ClusterService(
                Path(tmp) / f"svc-{seed}", clock=clock
            )
            try:
                jid = service.submit(spec)
                plan = KillPlan(
                    seed,
                    horizon=max(1, baseline.iterations),
                    max_kills=args.max_kills,
                )
                job = chaos_service_run(
                    service, jid, plan, clock=clock, sleep=clock.advance
                )
                result = service.result(jid)
                diffs = []
                if job.state != "done":
                    diffs.append(f"job finished in state {job.state!r}")
                if job.requeues != plan.kills:
                    diffs.append(
                        f"{plan.kills} kills but {job.requeues} requeues "
                        "(expiry must requeue exactly once)"
                    )
                if not np.array_equal(result.labels, baseline.labels):
                    diffs.append("labels differ from baseline")
                got_traj = [
                    tuple(h[f] for f in TRAJECTORY_FIELDS)
                    for h in result.history
                ]
                if got_traj != base_traj:
                    diffs.append("numeric trajectory differs from baseline")
                status = "ok" if not diffs else "DIVERGED"
                print(
                    f"plan seed={seed}: {plan.kills} worker kills over "
                    f"{plan.incarnations} incarnations, "
                    f"{job.requeues} requeues ... {status}"
                )
                if diffs:
                    failures += 1
                    for d in diffs:
                        print(f"    {d}")
            finally:
                service.close()
    if failures:
        print(
            f"FAIL: {failures}/{args.plans} kill/restart plans diverged "
            "from the uninterrupted baseline",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {args.plans} kill/restart plans, all bit-identical to baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
