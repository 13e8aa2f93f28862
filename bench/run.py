#!/usr/bin/env python3
"""The benchmark of record (see README.md and ../BENCHMARK.json).

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is the result
        object ../BENCHMARK.json describes (end-to-end metrics with
        --trace 0, per-layer metrics with --trace 1).
    python3 bench/run.py [--seed N] [--runs R] [--out FILE] [--smoke]
        every workload, R untraced runs and one traced run each, in fresh
        child processes; prints every metric and writes FILE.
    python3 bench/run.py compare A.json B.json
    python3 bench/run.py --update-golden [--workload W]
"""

from __future__ import annotations

import os
import sys

# Before NumPy loads: the measured program runs on one thread and sees no
# REPRO_* override, whatever the caller's shell exports.
for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEEDS = range(11)
#: An untraced run times at least two calls: on a slow host one call of
#: sparse-sync alone outlasts ``--seconds``.
MIN_SAMPLES = 2
#: Set-up is repeated up to three times for its median, while the
#: repeats so far took less than this (delta-warm's set-up alone is 7 s).
SETUP_REPEAT_BUDGET_S = 4.0
#: What a run imports, timed in this many fresh interpreters for its
#: median: a process can time an import once, and single samples of the
#: 0.2 s it takes spread 0.2 of their median, most of ``setup_s`` on the
#: workloads whose input is made in 0.1 s.
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import layers, workloads, repro.mcl.quality, repro.trace; "
    "print(time.perf_counter() - t)"
)


def retain_heap() -> bool:
    """Make glibc's malloc keep every page it has mapped, for this run.

    By default each large NumPy temporary is a fresh ``mmap`` that is
    zero-filled by the kernel on first touch and unmapped on free:
    sparse-sync maps 9 GB that way per call.  On this microVM the kernel
    time for that varies tenfold from run to run (1.6-2.9 s of a 6.5-9 s
    call), which is the host's noise, not the program's.  With ``mmap``
    off and trimming off, the cold call maps the heap once and the timed
    calls reuse it.  What mapping costs stays visible in ``host.sys_s``
    and ``host.minor_faults`` (the process up to the end of the cold call),
    ``mcl.cold_wall_s`` and ``peak_rss_mb``.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: measure as it comes
        return False
    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    return bool(mallopt(M_MMAP_MAX, 0)
                and mallopt(M_TRIM_THRESHOLD, 2**31 - 1))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def label_digest(labels) -> str:
    return hashlib.sha256(labels.astype("int64").tobytes()).hexdigest()[:16]


def exact_facts(res) -> dict:
    """What must repeat bit for bit: the clustering and the simulation."""
    return {
        "labels": label_digest(res.labels),
        "iterations": int(res.iterations),
        "sim_elapsed_s": float(res.elapsed_seconds),
        "sim_bytes_comm": int(res.bytes_communicated),
        "sim_peak_rank_bytes": int(res.peak_rank_resident_bytes),
    }


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def golden_platform() -> dict:
    """What the golden figures are tied to (floating point may differ)."""
    facts = machine_facts()
    return {"numpy": facts["numpy"], "machine": facts["machine"]}


class Checks:
    """Tally of correctness checks; failures are explained on stderr."""

    def __init__(self, attempted: int = 0, failed: int = 0):
        self.attempted = attempted
        self.failed = failed

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)


def import_seconds(repeats: int) -> list:
    """Seconds a fresh interpreter takes to import what a run imports."""
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    }
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
            capture_output=True, text=True,
        ).stdout)
        for _ in range(repeats)
    ]


def cpu_seconds() -> float:
    """User+sys CPU seconds of this process and its children so far.

    ``os.times`` only counts children already waited for, so the live
    pool workers are read from ``/proc/<pid>/stat`` (fields 14 and 15).
    """
    t = os.times()
    total = time.process_time() + t.children_user + t.children_system
    for child in multiprocessing.active_children():
        stat = Path(f"/proc/{child.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def stop_processes() -> None:
    """Close the pools and wait for every process this run started."""
    from multiprocessing import resource_tracker

    from repro.parallel import shutdown_executors

    shutdown_executors()
    # Forking the pool also started multiprocessing's resource tracker,
    # which would otherwise outlive this process by a moment.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Set up ``name``, run it for ``seconds`` and return the run record."""
    import layers
    import workloads
    from repro.mcl.quality import normalized_mutual_information
    from repro.trace import Tracer

    import_times = import_seconds(1 if smoke else IMPORT_REPEATS)
    workload = workloads.WORKLOADS[name]
    checks = Checks()

    setup_times = []
    while len(setup_times) < 3 and sum(setup_times) < SETUP_REPEAT_BUDGET_S:
        t0 = time.perf_counter()
        case = workload.setup(seed, smoke)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    t0 = time.perf_counter()
    first = case.run()
    cold_wall_s = time.perf_counter() - t0
    # Kernel time and page faults of this process so far: set-up and the
    # cold call map the working set that the timed calls reuse.
    mapped = resource.getrusage(resource.RUSAGE_SELF)
    want = exact_facts(first)

    def verify(res, what: str) -> None:
        checks.check(f"{what}: converged", res.converged)
        got = exact_facts(res)
        checks.check(f"{what}: repeats the first run", got == want,
                     f"{got} != {want}")
        if case.oracle_labels is not None:
            checks.check(
                f"{what}: labels equal the cold oracle's",
                label_digest(res.labels) == label_digest(case.oracle_labels),
            )

    verify(first, "cold run")
    golden = json.loads(GOLDEN.read_text())
    pinned = golden["cases"].get(workload.golden, {}).get(str(seed))
    if pinned and not smoke and golden["platform"] == golden_platform():
        checks.check("golden", want == pinned, f"{want} != {pinned}")

    walls, cpus, traced = [], [], []
    min_samples = 1 if trace or smoke else MIN_SAMPLES
    loop0 = time.perf_counter()
    while True:
        c0, t0 = cpu_seconds(), time.perf_counter()
        res = case.run()
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        verify(res, f"run {len(walls)}")
        if trace:
            recorder = layers.Recorder()
            with layers.installed(recorder):
                t0 = time.perf_counter()
                res_t = case.run()
                wall_t = time.perf_counter() - t0
            verify(res_t, f"traced run {len(traced) + 1}")
            if not smoke:  # ``expect`` describes the real inputs
                missing = layers.uncalled(recorder, name)
                checks.check("every wrapped name was called", not missing,
                             missing)
            traced.append((wall_t, recorder, res_t))
        if (len(walls) >= min_samples
                and time.perf_counter() - loop0 >= seconds):
            break
    wall_s = statistics.median(walls)
    flops = sum(h.flops for h in res.history)
    sim_s = want["sim_elapsed_s"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_times,
                    "import_s": import_times, "cold_wall_s": cold_wall_s},
        "exact": want,
        "end_to_end": {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "mflops_per_s": flops / wall_s / 1e6,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_elapsed_s": sim_s,
            "sim_bytes_comm": want["sim_bytes_comm"],
            "sim_peak_rank_mb": want["sim_peak_rank_bytes"] / 2**20,
            "quality_nmi":
                normalized_mutual_information(res.labels, case.truth),
        },
    }
    if trace:
        # The public tracer's cost, for the same call (ROADMAP: <= 5 %).
        t0 = time.perf_counter()
        res_p = case.run(trace=Tracer())
        tracer_wall_s = time.perf_counter() - t0
        verify(res_p, "run with trace=Tracer()")
        serial_wall_s = 0.0
        if case.serial_oracle:
            t0 = time.perf_counter()
            res_s = case.run(workers=1)
            serial_wall_s = time.perf_counter() - t0
            verify(res_s, "serial oracle")
        facts = case.facts | {
            "sys_s": mapped.ru_stime,
            "minor_faults": mapped.ru_minflt,
        }
        per_run = [
            layer_metrics(rec, res_t, wall_t, record["end_to_end"], facts,
                          cold_wall_s, tracer_wall_s, serial_wall_s)
            for wall_t, rec, res_t in traced
        ]
        record["per_layer"] = {
            key: statistics.median(m[key] for m in per_run)
            for key in per_run[0]
        }
        record["samples"]["traced_wall_s"] = [t[0] for t in traced]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed,
                        "fields": ["name", "start", "end", "parent"],
                        "spans": traced[-1][1].spans})
        )
    record["attempted"] = checks.attempted
    record["failed"] = checks.failed
    return record


def layer_metrics(rec, res, traced_wall_s, e2e, facts, cold_wall_s,
                  tracer_wall_s, serial_wall_s) -> dict:
    """The per-layer metrics of one traced run (``_s`` = self seconds)."""
    totals = rec.totals()

    def layer(prefix: str, field: str):
        return sum(
            row[field] for name, row in totals.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def self_s(prefix):
        return layer(prefix, "self_s")

    def calls(prefix):
        return layer(prefix, "calls")

    def ratio(a, b):
        return a / b if b else 0.0

    hist = res.history
    flops = sum(h.flops for h in hist)
    estimated = [h.estimation_error_pct for h in hist
                 if h.estimator_used != "symbolic"]
    products = sum(res.kernel_selections.values())
    merge_s = self_s("merge.lists") + self_s("merge.spkadd")
    triples = rec.counts["merge.lists"] + rec.counts["merge.spkadd"]
    wall_s = e2e["wall_s"]
    stage = res.stage_means
    sel = res.kernel_selections
    warm = "locality.stitch" in totals
    return {
        "spgemm.local_s": self_s("spgemm.local"),
        "spgemm.local_calls": calls("spgemm.local"),
        "spgemm.flops_total": flops,
        "spgemm.local_mflops_per_s":
            ratio(flops, self_s("spgemm.local")) / 1e6,
        "spgemm.cf_mean": statistics.fmean(h.cf for h in hist),
        "spgemm.symbolic_s": self_s("spgemm.symbolic"),
        "spgemm.symbolic_calls": calls("spgemm.symbolic"),
        "spgemm.estimate_s": self_s("spgemm.estimate"),
        "spgemm.estimate_calls": calls("spgemm.estimate"),
        "spgemm.estimate_err_pct":
            statistics.fmean(estimated) if estimated else 0.0,
        "spgemm.sel_cpu_hash": sel.get("cpu-hash", 0),
        "spgemm.sel_cpu_heap": sel.get("cpu-heap", 0),
        "gpu.sel_nsparse": sel.get("nsparse", 0),
        "gpu.sel_rmerge2": sel.get("rmerge2", 0),
        "gpu.sel_bhsparse": sel.get("bhsparse", 0),
        "gpu.fallbacks": res.gpu_fallbacks,
        "merge.lists_s": self_s("merge.lists"),
        "merge.lists_calls": calls("merge.lists"),
        "merge.spkadd_s": self_s("merge.spkadd"),
        "merge.spkadd_calls": calls("merge.spkadd"),
        "merge.in_triples": triples,
        "merge.mtriples_per_s": ratio(triples, merge_s) / 1e6,
        "merge.peak_event_elems":
            max(h.merge_peak_event_elements for h in hist),
        "summa.multiply_self_s": self_s("summa.multiply"),
        "summa.multiply_calls": calls("summa.multiply"),
        "summa.phases_total": sum(h.phases for h in hist),
        "summa.us_per_product":
            ratio(self_s("summa.multiply"), products) * 1e6,
        "summa.distribute_s": self_s("summa.distribute"),
        "summa.plan_s": self_s("summa.plan"),
        "sparse.hstack_s": self_s("sparse.hstack"),
        "mcl.prune_s": self_s("mcl.prune"),
        "mcl.prune_calls": calls("mcl.prune"),
        "mcl.prune_nnz_out": sum(h.nnz_pruned for h in hist),
        "mcl.inflate_s": self_s("mcl.inflate"),
        "mcl.components_s": self_s("mcl.components"),
        "mcl.prepare_s": self_s("mcl.prepare"),
        "mcl.driver_self_s": self_s("mcl.driver"),
        "mcl.iterations": res.iterations,
        "mcl.clusters": res.n_clusters,
        "mcl.cold_wall_s": cold_wall_s,
        "mpi.comm_s": self_s("mpi.comm"),
        "mpi.comm_calls": calls("mpi.comm"),
        "mpi.link_busy_sim_s": res.link_busy_seconds,
        "mpi.bcast_overlap_sim_s": res.bcast_overlap_seconds,
        "mpi.transport_p2p": res.transport_selections.get("p2p", 0),
        "mpi.transport_broadcast":
            res.transport_selections.get("broadcast", 0),
        "machine.sim_local_spgemm_s": stage["local_spgemm"],
        "machine.sim_mem_estimation_s": stage["mem_estimation"],
        "machine.sim_summa_bcast_s": stage["summa_bcast"],
        "machine.sim_merge_s": stage["merge"],
        "machine.sim_prune_s": stage["prune"],
        "machine.sim_other_s": stage["other"],
        "machine.sim_cpu_idle_s": res.cpu_idle_seconds,
        "machine.sim_gpu_idle_s": res.gpu_idle_seconds,
        "machine.host_s_per_sim_s": ratio(wall_s, e2e["sim_elapsed_s"]),
        "parallel.spinup_s": facts.get("spinup_s", 0.0),
        "parallel.submit_s": self_s("parallel.submit"),
        "parallel.gather_wait_s": self_s("parallel.gather_wait"),
        "parallel.batches": calls("parallel.submit"),
        "parallel.tasks": rec.counts["parallel.tasks"],
        "parallel.cpu_per_wall": ratio(e2e["cpu_s"], wall_s),
        "parallel.speedup_vs_serial": ratio(serial_wall_s, wall_s),
        "locality.apply_s": self_s("locality.apply"),
        "locality.dirty_s": self_s("locality.dirty"),
        "locality.subgraph_s": self_s("locality.subgraph"),
        "locality.subrun_s": layer("mcl.driver", "total_s") if warm else 0.0,
        "locality.stitch_self_s": self_s("locality.stitch"),
        "locality.dirty_fraction": facts.get("dirty_fraction", 0.0),
        "locality.speedup_vs_cold":
            ratio(facts.get("cold_oracle_s", 0.0), wall_s),
        "nets.generate_s": facts["generate_s"],
        "host.sys_s": facts["sys_s"],
        "host.minor_faults": facts["minor_faults"],
        "trace.wrapper_overhead_pct": (traced_wall_s / wall_s - 1) * 100,
        "trace.unattributed_share":
            ratio(self_s("mcl.driver"), traced_wall_s),
        "trace.tracer_overhead_pct": (tracer_wall_s / wall_s - 1) * 100,
    }


def with_units(values: dict, declared: list) -> dict:
    """``values`` as the result object wants them; names must match."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(
            "BENCHMARK.json and bench/run.py disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>18.6g} {m['unit']}")


def run_one(args, spec) -> int:
    retain_heap()
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    finally:
        stop_processes()
    record["end_to_end"] = with_units(record["end_to_end"],
                                      spec["end_to_end"])
    if args.trace:
        record["per_layer"] = with_units(record["per_layer"],
                                         spec["per_layer"])
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}.json").write_text(json.dumps(record))
    shown = record["per_layer" if args.trace else "end_to_end"]
    print_metrics(f"{args.workload} seed {args.seed}", shown)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": shown,
    }))
    return 0


def quartiles(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_suite(args, spec) -> int:
    """Every workload: ``--runs`` untraced children and one traced child."""
    out = {"schema": 1, "machine": machine_facts(), "seed": args.seed,
           "seconds": args.seconds, "runs": args.runs, "smoke": args.smoke,
           "workloads": {}}
    failed = 0
    for w in spec["workloads"]:
        name = w["name"]
        plan = [1] if args.smoke else [0] * args.runs + [1]
        records = []
        for trace in plan:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            records.append(
                json.loads((OUT / f"run-{name}.json").read_text())
            )
        checks = Checks(sum(r["attempted"] for r in records),
                        sum(r["failed"] for r in records))
        checks.check(
            f"{name}: every process agrees on the exact figures",
            all(r["exact"] == records[0]["exact"] for r in records),
        )
        if name == "dense-pool":
            serial = out["workloads"]["dense-sync"]["exact"]
            checks.check("dense-pool equals dense-sync",
                         records[0]["exact"] == serial)
        untraced = records if args.smoke else records[:-1]
        row = {
            "why": w["why"],
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failed_share": checks.failed / checks.attempted,
            "exact": records[0]["exact"],
            "end_to_end": {
                m["name"]: {
                    **quartiles([r["end_to_end"][m["name"]]["value"]
                                 for r in untraced]),
                    "unit": m["unit"],
                }
                for m in spec["end_to_end"]
            },
            "per_layer": records[-1]["per_layer"],
        }
        out["workloads"][name] = row
        failed += checks.failed
        print(f"== {name}: {w['why']}")
        print(f"checks {checks.attempted} failed {checks.failed}")
        for metric, q in row["end_to_end"].items():
            print(f"{metric:34s} {q['median']:>18.6g} {q['unit']:8s} "
                  f"[{q['q1']:.6g} .. {q['q3']:.6g}] n={q['n']}")
        print_metrics("per layer (traced run)", row["per_layer"])
    dense = out["workloads"]["dense-sync"]["end_to_end"]["wall_s"]["median"]
    pool = out["workloads"]["dense-pool"]["end_to_end"]["wall_s"]["median"]
    print(f"dense-sync / dense-pool wall_s = {dense / pool:.3f} "
          f"(base dense-pool {pool:.3f} s)")
    path = Path(args.out) if args.out else OUT / (
        "smoke.json" if args.smoke else "result.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}")
    return 1 if failed else 0


def _cell(q: dict) -> str:
    return f"{q['median']:.5g} [{q['q1']:.5g}..{q['q3']:.5g}] n={q['n']}"


def compare(path_a: str, path_b: str, spec) -> int:
    """One row per workload x end-to-end metric; nonzero exit on `worse`."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    exact_units = {m["name"] for m in spec["per_layer"]
                   if m["unit"] in ("count", "sim_s")}
    bad = 0
    print(f"{'workload':16s} {'metric':17s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'B/A':>7s} {'bound':>6s} verdict")
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"][name]
        for m in spec["end_to_end"]:
            qa = row_a["end_to_end"][m["name"]]
            qb = row_b["end_to_end"][m["name"]]
            ratio = qb["median"] / qa["median"]
            worse_by = ratio - 1 if m["better"] == "lower" else 1 - ratio
            spread = max((q["q3"] - q["q1"]) / q["median"] for q in (qa, qb))
            if worse_by > m["bound"]:
                verdict = "worse"
                bad += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"

            print(f"{name:16s} {m['name']:17s} {_cell(qa):>34s} "
                  f"{_cell(qb):>34s} {ratio:7.3f} {m['bound']:6.2f} {verdict}")
        if a["seed"] == b["seed"] and a["smoke"] == b["smoke"]:
            differing = [k for k in row_a["exact"]
                         if row_a["exact"][k] != row_b["exact"][k]]
            differing += [
                k for k in exact_units
                if row_a["per_layer"][k]["value"]
                != row_b["per_layer"][k]["value"]
            ]
            if differing:
                bad += 1
                print(f"{name:16s} EXACT FIGURES DIFFER: {sorted(differing)}")
    print("ratios are B/A (base A); `unresolved` = quartile spread wider "
          "than the bound")
    return 1 if bad else 0


def update_golden(only: str | None) -> int:
    """Re-record the golden figures (of ``--workload`` alone, if given)."""
    import workloads

    cases = json.loads(GOLDEN.read_text())["cases"] if only else {}
    for name, workload in workloads.WORKLOADS.items():
        if workload.golden != name or only not in (None, name):
            continue
        cases[name] = {}
        for seed in GOLDEN_SEEDS:
            cases[name][str(seed)] = exact_facts(
                workload.setup(seed, False).run()
            )
            print(name, seed, cases[name][str(seed)], flush=True)
    GOLDEN.write_text(json.dumps(
        {"platform": golden_platform(), "cases": cases}, indent=1) + "\n")
    return 0


def main(argv) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py measures the program in ../src/repro, which is "
              "not here", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one sample: a schema check")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (suite)")
    parser.add_argument("--out", help="result file (suite)")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.update_golden:
        return update_golden(args.workload)
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
