"""`bench/run.py --smoke` runs all six workloads and the traced path.

Not part of tier-1 (pyproject's testpaths is ``tests``); run it with
``python -m pytest bench/tests``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_smoke_suite(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        check=True, timeout=120,
    )
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, row in result["workloads"].items():
        assert NAME.fullmatch(name)
        assert row["attempted"] >= 1 and row["failed"] == 0, name
        assert set(row["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(row["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        for metric, q in row["end_to_end"].items():
            assert NAME.fullmatch(metric) and UNIT.fullmatch(q["unit"])
            assert q["median"] > 0, (name, metric)
        for metric, m in row["per_layer"].items():
            assert NAME.fullmatch(metric) and UNIT.fullmatch(m["unit"])
    # The workloads keep the layers apart: repro.parallel runs only on
    # dense-pool, repro.locality only on delta-warm.
    for name, row in result["workloads"].items():
        layers = row["per_layer"]
        assert (layers["parallel.batches"]["value"] > 0) == (name == "dense-pool")
        assert (layers["locality.subrun_s"]["value"] > 0) == (name == "delta-warm")


def test_result_line_contract():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "baseline-orig",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        check=True, timeout=60, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
