"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


def test_generate_and_cluster_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    out_path = tmp_path / "clusters.tsv"
    assert main(["generate", "planted:150:12", "-o", str(net_path)]) == 0
    assert net_path.exists()
    assert (
        main(
            [
                "cluster", str(net_path), "-o", str(out_path),
                "--select", "15",
            ]
        )
        == 0
    )
    lines = out_path.read_text().strip().splitlines()
    vertices = sorted(int(v) for line in lines for v in line.split("\t"))
    assert vertices == list(range(150))  # every vertex in exactly one cluster


def test_generate_catalog_network(tmp_path):
    net_path = tmp_path / "arch.mtx"
    assert main(["generate", "archaea-xs", "-o", str(net_path)]) == 0
    from repro.sparse import read_matrix_market

    mat = read_matrix_market(net_path)
    assert mat.shape == (1600, 1600)


def test_generate_bad_planted_spec(tmp_path):
    assert main(["generate", "planted:nope", "-o", str(tmp_path / "x")]) == 2


def test_cluster_distributed_mode(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    assert (
        main(
            [
                "cluster", str(net_path), "--mode", "optimized",
                "--nodes", "4", "--select", "12", "--stats",
            ]
        )
        == 0
    )
    out = capsys.readouterr()
    assert "clusters" in out.err
    assert "simulated" in out.err
    assert out.out.strip()  # clusters on stdout


def test_cluster_backend_flags(tmp_path, capsys):
    # --workers selects the wall-clock thread pool; stdout clustering
    # must be identical to the flagless run at every worker count.
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()
    base_args = [
        "cluster", str(net_path), "--mode", "optimized",
        "--nodes", "4", "--select", "12",
    ]
    assert main(base_args) == 0
    expected = capsys.readouterr().out
    for workers in ("1", "2", "3"):
        assert main(base_args + ["--workers", workers]) == 0
        assert capsys.readouterr().out == expected
    # The retired stage-overlap and backend flags are usage errors, not
    # no-ops.
    for retired in (["--overlap"], ["--backend", "thread"]):
        with pytest.raises(SystemExit) as exc:
            main(base_args + retired)
        assert exc.value.code == 2


def test_cluster_schedule_flag(tmp_path, capsys):
    # --schedule static changes only simulated time: the clustering on
    # stdout must match the sync run exactly.
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()
    base_args = [
        "cluster", str(net_path), "--mode", "optimized",
        "--nodes", "4", "--select", "12",
    ]
    assert main(base_args) == 0
    expected = capsys.readouterr().out
    assert main(base_args + ["--schedule", "static"]) == 0
    assert capsys.readouterr().out == expected
    # Modes without the pipelined engine reject the static schedule.
    assert main(
        ["cluster", str(net_path), "--mode", "cpu", "--schedule", "static"]
    ) == 2
    assert "pipelined engine" in capsys.readouterr().err
    # And the reference mode rejects the knob like the other pool flags.
    assert main(
        ["cluster", str(net_path), "--mode", "reference",
         "--schedule", "static"]
    ) == 2
    assert "distributed --mode" in capsys.readouterr().err


def test_cluster_backend_flags_need_distributed_mode(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()
    for extra in (["--workers", "2"], ["--workers", "1"]):
        assert (
            main(["cluster", str(net_path), "--mode", "reference"] + extra)
            == 2
        )
        assert "distributed --mode" in capsys.readouterr().err


def test_cluster_modes_agree(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()  # drop the generate command's output
    labelings = {}
    for mode in ("reference", "optimized", "original", "cpu"):
        args = ["cluster", str(net_path), "--mode", mode, "--select", "12"]
        if mode != "reference":
            args += ["--nodes", "4"]
        assert main(args) == 0
        labels = np.empty(100, dtype=np.int64)
        for lbl, line in enumerate(capsys.readouterr().out.splitlines()):
            for v in line.split("\t"):
                labels[int(v)] = lbl
        labelings[mode] = labels
    # Identical partitions up to floating-point prune ties (the paper's
    # own caveat for HipMCL vs mcl): demand near-perfect agreement.
    from helpers import adjusted_rand_index

    ref = labelings["reference"]
    for mode, labels in labelings.items():
        assert adjusted_rand_index(ref, labels) > 0.95, mode


def test_cluster_abc_file_with_labels(tmp_path, capsys):
    abc = tmp_path / "net.abc"
    abc.write_text(
        "P1\tP2\t2.0\nP2\tP3\t3.0\nP4\tP5\t1.0\nP5\tP6\t2.5\n"
    )
    assert main(["cluster", str(abc), "--select", "5"]) == 0
    out = capsys.readouterr().out
    lines = sorted(out.strip().splitlines())
    assert lines == ["P1\tP2\tP3", "P4\tP5\tP6"]


def test_cluster_trace_export(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.ndjson"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()
    base_args = ["cluster", str(net_path), "--mode", "optimized",
                 "--nodes", "4", "--select", "12"]
    assert main(base_args) == 0
    expected = capsys.readouterr().out
    assert (
        main(base_args + ["--trace", str(trace_path),
                          "--metrics", str(metrics_path)])
        == 0
    )
    out = capsys.readouterr()
    assert out.out == expected  # tracing must not perturb the clustering
    assert "trace events" in out.err and "metric events" in out.err

    import json

    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    from repro.trace import read_metrics_ndjson

    rows = read_metrics_ndjson(metrics_path)
    assert any(r["name"] == "iteration.nnz" for r in rows)


def test_cluster_trace_flags_need_distributed_mode(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    capsys.readouterr()
    for extra in (["--trace", str(tmp_path / "t.json")],
                  ["--metrics", str(tmp_path / "m.ndjson")]):
        assert (
            main(["cluster", str(net_path), "--mode", "reference"] + extra)
            == 2
        )
        assert "distributed --mode" in capsys.readouterr().err


def test_cluster_fault_injection_matches_clean_run(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()
    base_args = ["cluster", str(net_path), "--mode", "optimized",
                 "--nodes", "4", "--select", "12"]
    assert main(base_args) == 0
    clean = capsys.readouterr().out
    assert main(base_args + ["--fault-seed", "3"]) == 0
    out = capsys.readouterr()
    assert "recovered" in out.err and "injected faults" in out.err
    assert out.out == clean  # bit-identical clustering under faults


def test_cluster_checkpoint_and_resume(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    ckpt_dir = tmp_path / "ckpts"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()
    base_args = ["cluster", str(net_path), "--mode", "optimized",
                 "--nodes", "4", "--select", "12"]
    assert main(base_args + ["--checkpoint-dir", str(ckpt_dir)]) == 0
    out = capsys.readouterr()
    assert "checkpoints" in out.err
    full = out.out
    from repro.resilience import latest_checkpoint

    ckpt = latest_checkpoint(ckpt_dir)
    assert ckpt is not None
    assert main(base_args + ["--resume-from", str(ckpt)]) == 0
    out = capsys.readouterr()
    assert "resumed from iteration" in out.err
    assert out.out == full


def test_cluster_strict_mode_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()
    args = ["cluster", str(net_path), "--mode", "optimized", "--nodes", "4",
            "--select", "12", "--max-iterations", "2", "--strict"]
    assert main(args) == 3
    assert "no convergence" in capsys.readouterr().err
    # Without --strict the same run reports best-so-far and exits 0.
    assert main(args[:-1]) == 0
    assert "converged=False" in capsys.readouterr().err


def test_cluster_resilience_flags_need_distributed_mode(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:100:10", "-o", str(net_path)])
    for flag in (["--fault-seed", "1"], ["--checkpoint-dir", "/tmp/x"],
                 ["--resume-from", "/tmp/x"]):
        assert main(["cluster", str(net_path)] + flag) == 2
        assert "distributed --mode" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["reference", "optimized", "original"])
def test_cluster_rejects_hostile_input(tmp_path, capsys, mode):
    header = "%%MatrixMarket matrix coordinate real general\n"
    for name, body, message in (
        ("nan", "2 2 2\n1 2 nan\n2 1 1.0\n", "finite edge weights"),
        ("inf", "2 2 2\n1 2 inf\n2 1 1.0\n", "finite edge weights"),
        ("neg", "2 2 2\n1 2 -1.0\n2 1 1.0\n", "non-negative"),
        ("rect", "2 3 2\n1 2 1.0\n2 1 1.0\n", "square matrix"),
    ):
        path = tmp_path / f"{name}.mtx"
        path.write_text(header + body)
        assert main(["cluster", str(path), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_experiment_list(capsys):
    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out
    for exp in ("fig1", "table5", "ablation-dcsc"):
        assert exp in out


def test_experiment_unknown(capsys):
    assert main(["experiment", "figure-nine"]) == 2


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["fly"])


# ---------------------------------------------------------------------------
# The service subcommands: submit / serve / jobs
# ---------------------------------------------------------------------------


def _submit(tmp_path, capsys, net_path, *extra):
    svc = str(tmp_path / "svc")
    assert main(["submit", svc, str(net_path), "--select", "30"]
                + list(extra)) == 0
    jid, state = capsys.readouterr().out.split()
    return svc, jid, state


def test_service_submit_serve_jobs_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()

    svc, jid, state = _submit(tmp_path, capsys, net_path)
    assert state == "queued"

    assert main(["serve", svc, "--drain", "--poll", "0.01"]) == 0
    err = capsys.readouterr().err
    assert f"{jid} done" in err

    assert main(["jobs", svc]) == 0
    out = capsys.readouterr().out
    assert jid in out and "done" in out and "clusters=" in out

    clusters = tmp_path / "clusters.txt"
    assert main(["jobs", svc, jid, "-o", str(clusters), "--tail"]) == 0
    captured = capsys.readouterr()
    assert "job.done" in captured.out  # --tail streams the NDJSON events
    assert clusters.read_text().strip()  # cluster lines written


def test_service_resubmit_serves_from_cache(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()

    svc, _, _ = _submit(tmp_path, capsys, net_path)
    main(["serve", svc, "--drain", "--poll", "0.01"])
    capsys.readouterr()

    _, jid2, state = _submit(tmp_path, capsys, net_path)
    assert state == "done"  # served at submit time, no runner involved
    assert main(["jobs", svc, jid2]) == 0
    assert '"cache_hit": true' in capsys.readouterr().out


def test_service_jobs_unknown_id(tmp_path, capsys):
    svc = str(tmp_path / "svc")
    (tmp_path / "svc").mkdir()
    assert main(["jobs", svc, "nope"]) == 2
    assert "unknown job" in capsys.readouterr().err


def test_service_output_before_done_fails(tmp_path, capsys):
    net_path = tmp_path / "net.mtx"
    main(["generate", "planted:120:10", "-o", str(net_path)])
    capsys.readouterr()
    svc, jid, _ = _submit(tmp_path, capsys, net_path)
    assert main(["jobs", svc, jid, "-o", str(tmp_path / "c.txt")]) == 3
    assert "no result" in capsys.readouterr().err
