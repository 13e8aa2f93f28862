"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the HipMCL user's workflow:

``generate``
    Write a catalog network (or a custom planted network) to a
    MatrixMarket file.
``cluster``
    Cluster a MatrixMarket network with the sequential reference MCL or a
    simulated distributed HipMCL run, writing mcl-style cluster lines.
``recluster``
    Apply an edge delta to an already-clustered network and re-cluster
    incrementally, warm-starting from the base run's labels (see
    ``docs/locality.md``).
``experiment``
    Regenerate one of the paper's tables/figures and print it.
``submit`` / ``serve`` / ``jobs``
    The clustering service (see ``docs/service.md``): enqueue a job into
    a service directory, run a crash-safe worker loop over it, and
    inspect job status / fetch results / tail streamed progress.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Markov clustering for pre-exascale architectures — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a network file")
    gen.add_argument(
        "network",
        help="catalog name (archaea-xs, ...) or 'planted:<n>:<deg>'",
    )
    gen.add_argument("-o", "--output", required=True, help="output .mtx path")
    gen.add_argument("--seed", type=int, default=0)

    clu = sub.add_parser(
        "cluster", help="cluster a MatrixMarket or abc network file"
    )
    clu.add_argument(
        "input",
        help="MatrixMarket (.mtx) or mcl-style label-pair (.abc) file",
    )
    clu.add_argument("-o", "--output", help="cluster file (default stdout)")
    clu.add_argument("--inflation", type=float, default=2.0)
    clu.add_argument("--threshold", type=float, default=1e-4)
    clu.add_argument("--select", type=int, default=1000, metavar="K")
    clu.add_argument("--recover", type=int, default=0, metavar="R")
    clu.add_argument("--max-iterations", type=int, default=100)
    clu.add_argument(
        "--mode",
        choices=["reference", "optimized", "original", "cpu"],
        default="reference",
        help="sequential reference or a simulated distributed variant",
    )
    clu.add_argument(
        "--nodes", type=int, default=16,
        help="virtual node count for distributed modes (perfect square)",
    )
    clu.add_argument("--stats", action="store_true",
                     help="print per-iteration work statistics")
    clu.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when the run hits --max-iterations without "
        "converging (default: report the best-so-far clustering)",
    )
    clu.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write a checkpoint after every iteration (distributed "
        "modes only)",
    )
    clu.add_argument(
        "--resume-from", metavar="CKPT",
        help="resume a distributed run from a checkpoint file",
    )
    clu.add_argument(
        "--fault-seed", type=int, metavar="SEED",
        help="inject deterministic transient faults from this seed "
        "(distributed modes only; recovery keeps the clustering "
        "bit-identical)",
    )
    clu.add_argument(
        "--fault-intensity", type=float, default=0.2,
        help="fault-plan intensity in [0, 1] for --fault-seed "
        "(default 0.2)",
    )
    clu.add_argument(
        "--workers", metavar="N",
        help="threads for the wall-clock execution, the caller being "
        "one of them ('auto' = one per core; distributed modes only; "
        "results are bit-identical for any value; default: "
        "REPRO_WORKERS or serial)",
    )
    clu.add_argument(
        "--grid", choices=["2d", "3d"], default=None,
        help="process-grid shape the simulated clocks are modeled on: "
        "the √P×√P SUMMA grid (2d) or the split-3D grid with per-layer "
        "broadcast trees and sparsity-aware hybrid transport (3d); "
        "clustering results stay bit-identical — only modeled timings "
        "change (default: REPRO_GRID or 2d)",
    )
    clu.add_argument(
        "--layers", default=None, metavar="C",
        help="replication factor c of --grid 3d ('auto' or a square "
        "c = r² with r | √P; default: REPRO_LAYERS or auto)",
    )
    clu.add_argument(
        "--schedule", choices=["sync", "static"], default=None,
        help="SUMMA broadcast schedule: blocking collectives (sync) or "
        "the fully-static pipeline (async double-buffered broadcasts on "
        "per-row/column links, per-column prune overlap); 'static' "
        "changes the simulated makespan — clustering results stay "
        "identical (default sync)",
    )
    clu.add_argument(
        "--trace", metavar="FILE",
        help="record the run with the observability tracer and write a "
        "Chrome trace-event JSON (load in Perfetto; distributed modes "
        "only; tracing is passive — results are bit-identical)",
    )
    clu.add_argument(
        "--metrics", metavar="FILE",
        help="write the traced run's metrics stream as NDJSON "
        "(implies tracing; distributed modes only)",
    )

    rec = sub.add_parser(
        "recluster",
        help="re-cluster a network incrementally after an edge delta",
    )
    rec.add_argument(
        "input",
        help="base network: MatrixMarket (.mtx) or label-pair (.abc) file",
    )
    rec.add_argument(
        "delta",
        help="edge-delta file: lines of 'add i j [w]' / 'remove i j' "
        "('#' comments allowed)",
    )
    rec.add_argument("-o", "--output", help="cluster file (default stdout)")
    rec.add_argument("--inflation", type=float, default=2.0)
    rec.add_argument("--threshold", type=float, default=1e-4)
    rec.add_argument("--select", type=int, default=1000, metavar="K")
    rec.add_argument("--recover", type=int, default=0, metavar="R")
    rec.add_argument("--max-iterations", type=int, default=100)
    rec.add_argument(
        "--mode", choices=["optimized", "original", "cpu"],
        default="optimized",
    )
    rec.add_argument("--nodes", type=int, default=16)
    rec.add_argument(
        "--base-labels", metavar="FILE",
        help="npy file of the base run's labels; when omitted the base "
        "graph is clustered cold first (and the speedup is reported)",
    )
    rec.add_argument(
        "--save-base-labels", metavar="FILE",
        help="write the base run's labels as npy for future reclusters",
    )
    rec.add_argument("--workers", metavar="N",
                     help="pool workers (see cluster --workers)")

    exp = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    exp.add_argument("name", help="experiment id (fig1..fig8, table2..5, "
                     "ablation-*) or 'list'")

    smt = sub.add_parser(
        "submit", help="enqueue a clustering job into a service directory"
    )
    smt.add_argument("dir", help="service directory (created if missing)")
    smt.add_argument(
        "input",
        help=".mtx/.abc network file or 'catalog:<name>[:<seed>]'",
    )
    smt.add_argument("--inflation", type=float, default=2.0)
    smt.add_argument("--threshold", type=float, default=1e-4)
    smt.add_argument("--select", type=int, default=1000, metavar="K")
    smt.add_argument("--recover", type=int, default=0, metavar="R")
    smt.add_argument("--max-iterations", type=int, default=100)
    smt.add_argument(
        "--mode", choices=["optimized", "original", "cpu"],
        default="optimized",
    )
    smt.add_argument("--nodes", type=int, default=16)
    smt.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="per-process transient budget for the run's phase planner",
    )
    smt.add_argument(
        "--max-retries", type=int, default=3,
        help="failed-attempt retries before the job parks in 'failed'",
    )
    smt.add_argument(
        "--backoff", type=float, default=1.0, metavar="SECONDS",
        help="base of the exponential retry backoff (default 1.0)",
    )
    smt.add_argument(
        "--no-cache", action="store_true",
        help="do not serve this submission from the result cache",
    )
    smt.add_argument(
        "--delta", metavar="FILE",
        help="edge-delta file ('add i j [w]' / 'remove i j' lines) "
        "making this an incremental job against the base graph; the "
        "worker warm-starts from the base job's cached labels",
    )

    srv = sub.add_parser(
        "serve", help="run a worker loop over a service directory"
    )
    srv.add_argument("dir", help="service directory")
    srv.add_argument(
        "--drain", action="store_true",
        help="exit once the queue is empty (default: poll forever)",
    )
    srv.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after processing N jobs",
    )
    srv.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="job lease duration; heartbeats at iteration boundaries "
        "renew it (default 30)",
    )
    srv.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle sleep between empty claims (default 0.5)",
    )
    srv.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="service-wide admission budget: concurrent jobs' working "
        "sets are gated against it (default: unlimited)",
    )
    srv.add_argument("--workers", metavar="N",
                     help="pool workers for each job (see cluster --workers)")

    jbs = sub.add_parser(
        "jobs", help="inspect a service directory's jobs"
    )
    jbs.add_argument("dir", help="service directory")
    jbs.add_argument("job", nargs="?", help="job id (default: list all)")
    jbs.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the job's mcl-style cluster lines (done jobs only)",
    )
    jbs.add_argument(
        "--tail", action="store_true",
        help="print the job's streamed metric events (NDJSON)",
    )
    return parser


def _cmd_generate(args) -> int:
    from .nets import catalog, planted_network
    from .sparse import write_matrix_market

    if args.network.startswith("planted:"):
        parts = args.network.split(":")
        if len(parts) != 3:
            print(
                "planted spec must be planted:<n>:<intra_degree>",
                file=sys.stderr,
            )
            return 2
        n, deg = int(parts[1]), float(parts[2])
        net = planted_network(
            n, intra_degree=deg, inter_degree=max(1.0, deg / 20),
            seed=args.seed,
        )
    else:
        net = catalog.load(args.network, seed=args.seed)
    write_matrix_market(net.matrix, args.output)
    print(
        f"wrote {args.output}: {net.n_vertices} vertices, "
        f"{net.matrix.nnz} entries, {net.n_true_clusters} planted clusters"
    )
    return 0


def _cmd_cluster(args) -> int:
    from .mcl import MclOptions, markov_cluster
    from .mcl.hipmcl import HipMCLConfig, hipmcl
    from .mcl.components import clusters_from_labels
    from .sparse import read_abc, read_matrix_market

    labels_dict = None
    if str(args.input).endswith(".abc"):
        matrix, labels_dict = read_abc(args.input, symmetrize=True)
    else:
        matrix = read_matrix_market(args.input)
    options = MclOptions(
        inflation=args.inflation,
        prune_threshold=args.threshold,
        select_number=args.select,
        recover_number=args.recover,
        max_iterations=args.max_iterations,
    )
    from .errors import ConvergenceError, ShapeError, WeightError

    if args.mode == "reference":
        for flag, name in (
            (args.checkpoint_dir, "--checkpoint-dir"),
            (args.resume_from, "--resume-from"),
            (args.fault_seed, "--fault-seed"),
            (args.workers, "--workers"),
            (args.schedule, "--schedule"),
            (args.grid, "--grid"),
            (args.layers, "--layers"),
            (args.trace, "--trace"),
            (args.metrics, "--metrics"),
        ):
            if flag is not None:
                print(
                    f"{name} requires a distributed --mode "
                    "(optimized/original/cpu)",
                    file=sys.stderr,
                )
                return 2
        try:
            res = markov_cluster(
                matrix, options, raise_on_no_convergence=args.strict
            )
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ShapeError, WeightError) as exc:
            print(f"error: {args.input}: {exc}", file=sys.stderr)
            return 2
        extra = ""
    else:
        schedule = args.schedule or "sync"
        if schedule == "static" and args.mode in ("original", "cpu"):
            print(
                "--schedule static needs the pipelined engine "
                "(--mode optimized)",
                file=sys.stderr,
            )
            return 2
        from .errors import GridError
        from .mpi.grid import resolve_grid, resolve_layers

        try:
            grid_shape = resolve_grid(args.grid)
            layers = resolve_layers(args.layers) if grid_shape == "3d" else 0
        except GridError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            cfg = {
                "optimized": HipMCLConfig.optimized,
                "original": HipMCLConfig.original,
                "cpu": HipMCLConfig.optimized_cpu,
            }[args.mode](
                nodes=args.nodes, schedule=schedule,
                grid=grid_shape, layers=layers,
            )
        except GridError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        faults = None
        if args.fault_seed is not None:
            from .resilience import FaultPlan

            faults = FaultPlan.chaos(
                args.fault_seed, intensity=args.fault_intensity
            )
        if args.workers is not None:
            from .parallel import resolve_workers

            try:
                resolve_workers(args.workers)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        tracer = None
        if args.trace or args.metrics:
            from .trace import Tracer

            tracer = Tracer()
        try:
            res = hipmcl(
                matrix, options, cfg,
                strict=args.strict,
                faults=faults,
                resume_from=args.resume_from,
                checkpoint_dir=args.checkpoint_dir,
                workers=args.workers,
                trace=tracer,
            )
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ShapeError, WeightError) as exc:
            print(f"error: {args.input}: {exc}", file=sys.stderr)
            return 2
        if tracer is not None:
            from .trace import write_chrome_trace, write_metrics

            if args.trace:
                n_events = write_chrome_trace(tracer, args.trace)
                print(
                    f"wrote {args.trace}: {n_events} trace events "
                    f"({len(tracer.spans)} spans, {len(tracer.lanes())} "
                    "lanes; load in Perfetto)",
                    file=sys.stderr,
                )
            if args.metrics:
                n_lines = write_metrics(tracer, args.metrics)
                print(
                    f"wrote {args.metrics}: {n_lines} metric events",
                    file=sys.stderr,
                )
        extra = (
            f", {res.elapsed_seconds:.4f} simulated s on {args.nodes} "
            "virtual nodes"
        )
        if res.grid == "3d":
            sel = ", ".join(
                f"{v} {k}" for k, v in sorted(res.transport_selections.items())
            )
            extra += f"; 3D grid ({res.layers} layers; {sel or 'no'} transports)"
        if res.faults_injected:
            injected = sum(res.faults_injected.values())
            extra += (
                f"; recovered {injected} injected faults "
                f"({res.comm_retries} collective retries, "
                f"{res.kernel_demotions + res.gpu_fallbacks} kernel "
                f"demotions, {res.estimator_fallbacks} estimator "
                f"fallbacks, {res.phase_split_retries} phase splits)"
            )
        if res.checkpoints_written:
            extra += f"; wrote {res.checkpoints_written} checkpoints"
        if res.resumed_from_iteration:
            extra += f"; resumed from iteration {res.resumed_from_iteration}"
    print(
        f"{res.n_clusters} clusters in {res.iterations} iterations "
        f"(converged={res.converged}{extra})",
        file=sys.stderr,
    )
    if args.stats and hasattr(res, "history"):
        for h in res.history:
            line = (
                f"iter {getattr(h, 'index', '?')}: flops={h.flops} "
                f"cf={h.cf:.2f} chaos={h.chaos:.2e}"
            )
            print(line, file=sys.stderr)
    def render(v: int) -> str:
        return labels_dict[v] if labels_dict is not None else str(v)

    lines = [
        "\t".join(render(v) for v in cluster)
        for cluster in clusters_from_labels(np.asarray(res.labels))
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_recluster(args) -> int:
    from .errors import ConvergenceError, LocalityError
    from .locality import GraphDelta, WarmStart, read_delta_file
    from .mcl import MclOptions
    from .mcl.components import clusters_from_labels
    from .mcl.hipmcl import HipMCLConfig, hipmcl
    from .sparse import read_abc, read_matrix_market

    labels_dict = None
    if str(args.input).endswith(".abc"):
        matrix, labels_dict = read_abc(args.input, symmetrize=True)
    else:
        matrix = read_matrix_market(args.input)
    options = MclOptions(
        inflation=args.inflation,
        prune_threshold=args.threshold,
        select_number=args.select,
        recover_number=args.recover,
        max_iterations=args.max_iterations,
    )
    cfg = {
        "optimized": HipMCLConfig.optimized,
        "original": HipMCLConfig.original,
        "cpu": HipMCLConfig.optimized_cpu,
    }[args.mode](nodes=args.nodes)
    try:
        add, remove = read_delta_file(args.delta)
        delta = GraphDelta.from_edges(matrix.ncols, add, remove)
    except (LocalityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_kwargs = dict(workers=args.workers)
    try:
        if args.base_labels:
            base_labels = np.load(args.base_labels)
            if len(base_labels) != matrix.ncols:
                print(
                    f"error: {args.base_labels} holds {len(base_labels)} "
                    f"labels, the network has {matrix.ncols} vertices",
                    file=sys.stderr,
                )
                return 2
            cold_seconds = None
        else:
            t0 = time.perf_counter()
            base = hipmcl(matrix, options, cfg, **run_kwargs)
            cold_seconds = time.perf_counter() - t0
            base_labels = np.asarray(base.labels)
            print(
                f"base run: {base.n_clusters} clusters in "
                f"{base.iterations} iterations ({cold_seconds:.2f}s wall)",
                file=sys.stderr,
            )
            if args.save_base_labels:
                np.save(args.save_base_labels, base_labels)
                print(
                    f"wrote {args.save_base_labels}", file=sys.stderr
                )
        t0 = time.perf_counter()
        res = hipmcl(
            matrix, options, cfg,
            warm_start=WarmStart(
                np.asarray(base_labels, dtype=np.int64), delta
            ),
            **run_kwargs,
        )
        warm_seconds = time.perf_counter() - t0
    except (ConvergenceError, LocalityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    speed = ""
    if cold_seconds is not None and warm_seconds > 0:
        speed = f", {cold_seconds / warm_seconds:.1f}x vs cold base run"
    print(
        f"recluster (+{delta.num_edges} delta edges): {res.n_clusters} "
        f"clusters in {res.iterations} iterations "
        f"({warm_seconds:.2f}s wall{speed})",
        file=sys.stderr,
    )

    def render(v: int) -> str:
        return labels_dict[v] if labels_dict is not None else str(v)

    lines = [
        "\t".join(render(v) for v in cluster)
        for cluster in clusters_from_labels(np.asarray(res.labels))
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    from .bench.harness import ALL_EXPERIMENTS

    if args.name == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:18s} {doc}")
        return 0
    try:
        fn = ALL_EXPERIMENTS[args.name]
    except KeyError:
        print(
            f"unknown experiment {args.name!r}; try 'list'", file=sys.stderr
        )
        return 2
    print(fn().render())
    return 0


def _cmd_submit(args) -> int:
    from .errors import LocalityError, ServiceError
    from .service import ClusterService, JobSpec

    options = {
        "inflation": args.inflation,
        "prune_threshold": args.threshold,
        "select_number": args.select,
        "recover_number": args.recover,
        "max_iterations": args.max_iterations,
    }
    config = {}
    if args.memory_budget is not None:
        config["memory_budget_bytes"] = args.memory_budget
    delta = None
    if args.delta:
        from .locality import read_delta_file

        try:
            add, remove = read_delta_file(args.delta)
        except (LocalityError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        delta = {
            "add": [[int(i), int(j), float(w)] for i, j, w in add],
            "remove": [[int(i), int(j)] for i, j in remove],
        }
    service = ClusterService(args.dir)
    try:
        spec = JobSpec(
            graph=args.input,
            mode=args.mode,
            nodes=args.nodes,
            options=options,
            config=config,
            delta=delta,
        )
        jid = service.submit(
            spec,
            max_retries=args.max_retries,
            backoff_base=args.backoff,
            serve_from_cache=not args.no_cache,
        )
        state = service.status(jid).state
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        service.close()
    print(f"{jid} {state}")
    return 0


def _cmd_serve(args) -> int:
    from .service import ClusterService

    service = ClusterService(args.dir)
    runner = service.make_runner(
        lease_seconds=args.lease,
        poll_seconds=args.poll,
        memory_budget_bytes=args.memory_budget,
        workers=args.workers,
    )
    print(
        f"serving {args.dir} as {runner.worker_id} "
        f"(lease {args.lease:g}s): {service.counts()}",
        file=sys.stderr,
    )
    try:
        if args.drain or args.max_jobs is not None:
            n = runner.drain(max_jobs=args.max_jobs)
        else:  # pragma: no cover - interactive polling loop
            n = 0
            while True:
                if runner.run_once() is not None:
                    n += 1
                else:
                    time.sleep(args.poll)
    except KeyboardInterrupt:  # pragma: no cover
        n = len(runner.processed)
    finally:
        for jid, outcome in runner.processed:
            print(f"{jid} {outcome}", file=sys.stderr)
        print(f"processed {len(runner.processed)} job(s)", file=sys.stderr)
        service.close()
    return 0


def _cmd_jobs(args) -> int:
    import json

    from .errors import ServiceError
    from .mcl.components import clusters_from_labels
    from .service import ClusterService

    service = ClusterService(args.dir)
    try:
        if args.job is None:
            for job in service.queue.list_jobs():
                extra = ""
                if job.state == "done" and job.result:
                    extra = (
                        f" clusters={job.result['n_clusters']}"
                        f" iters={job.result['iterations']}"
                        + (" (cache)" if job.result.get("cache_hit") else "")
                    )
                elif job.error:
                    extra = f" error={job.error!r}"
                print(
                    f"{job.id} {job.state} attempts={job.attempts} "
                    f"requeues={job.requeues}{extra}"
                )
            return 0
        try:
            job = service.queue.get(args.job)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{job.id}: {job.state}")
        print(
            f"  attempts={job.attempts} requeues={job.requeues} "
            f"releases={job.releases} worker={job.worker or '-'}"
        )
        if job.result:
            print(f"  result: {json.dumps(job.result, sort_keys=True)}")
        if job.error:
            print(f"  error: {job.error}")
        if args.tail:
            events, _ = service.progress(args.job)
            for ev in events:
                print(json.dumps(ev, sort_keys=True))
        if args.output:
            try:
                labels = service.labels(args.job)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            lines = [
                "\t".join(str(v) for v in cluster)
                for cluster in clusters_from_labels(np.asarray(labels))
            ]
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        return 0
    finally:
        service.close()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "recluster": _cmd_recluster,
        "experiment": _cmd_experiment,
        "submit": _cmd_submit,
        "serve": _cmd_serve,
        "jobs": _cmd_jobs,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
