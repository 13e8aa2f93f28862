"""Checkpoint crash-hardening and the fingerprint discipline.

The service layer trusts two properties pinned here: a checkpoint writer
killed at any byte leaves no readable-but-wrong file (atomic writes +
typed load failures), and the ``config_fingerprint``/``graph_fingerprint``
pair is sensitive to every answer-changing knob while staying stable
across processes — the foundation of both checkpoint resumption and the
result cache.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.mcl import MclOptions
from repro.mcl.hipmcl import HipMCLConfig
from repro.resilience.checkpoint import (
    MclCheckpoint,
    checkpoint_path,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import _checksum
from repro.service import graph_fingerprint, job_cache_key
from repro.sparse import random_csc


def _ckpt(iteration: int = 3) -> MclCheckpoint:
    return MclCheckpoint(
        iteration=iteration,
        work=random_csc((24, 24), 0.2, seed=8),
        history=[],
        prev_cf=2.5,
        elapsed_seconds=0.125,
        counters={},
        fingerprint="f" * 64,
    )


# ---------------------------------------------------------------------------
# Hardened load: every corruption mode is a CheckpointError
# ---------------------------------------------------------------------------


class TestCorruptLoad:
    @pytest.mark.parametrize("keep", [0.1, 0.25, 0.5, 0.9, 0.99])
    def test_truncation_at_any_fraction_is_typed(self, tmp_path, keep):
        path = save_checkpoint(checkpoint_path(tmp_path, 1), _ckpt(1))
        blob = path.read_bytes()
        path.write_bytes(blob[: max(1, int(len(blob) * keep))])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_bytes_are_typed(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_empty_file_is_typed(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_non_dict_metadata_is_typed(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps([1, 2, 3])),
                indptr=np.zeros(2, dtype=np.int64),
                indices=np.zeros(0, dtype=np.int64),
                data=np.zeros(0),
            )
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_malformed_history_payload_is_typed(self, tmp_path):
        # A checksum-valid archive whose history entries don't match the
        # HipMCLIteration schema (e.g. written by a future field rename).
        ckpt = _ckpt(1)
        arrays = {
            "indptr": ckpt.work.indptr,
            "indices": ckpt.work.indices,
            "data": ckpt.work.data,
        }
        meta = {
            "version": 1,
            "iteration": 1,
            "shape": list(ckpt.work.shape),
            "prev_cf": 2.5,
            "elapsed_seconds": 0.125,
            "counters": {},
            "fingerprint": "f" * 64,
            "history": [{"no_such_field": 7}],
        }
        meta["checksum"] = _checksum(meta, arrays)
        path = checkpoint_path(tmp_path, 1)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(CheckpointError, match="malformed payload"):
            load_checkpoint(path)


    def test_out_of_range_indices_with_a_valid_checksum_are_typed(
        self, tmp_path
    ):
        # Intact bytes, honest checksum, impossible iterate: a row index
        # past the matrix.  The rebuild must refuse it, not hand a compiled
        # kernel an out-of-bounds index.
        work = _ckpt(1).work
        indices = work.indices.copy()
        indices[-1] = work.shape[0] + 5
        arrays = {"indptr": work.indptr, "indices": indices, "data": work.data}
        meta = {
            "version": 1,
            "iteration": 1,
            "shape": list(work.shape),
            "prev_cf": 2.5,
            "elapsed_seconds": 0.125,
            "counters": {},
            "fingerprint": "f" * 64,
            "history": [],
        }
        meta["checksum"] = _checksum(meta, arrays)
        path = checkpoint_path(tmp_path, 1)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(CheckpointError, match="invalid iterate"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicSave:
    def test_failed_write_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = checkpoint_path(tmp_path, 1)
        save_checkpoint(path, _ckpt(1))
        before = path.read_bytes()

        def doomed_savez(fh, **arrays):
            fh.write(b"partial garbage")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(np, "savez", doomed_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, _ckpt(1))
        monkeypatch.undo()
        # The interrupted writer changed nothing under the real name and
        # left no temp debris behind.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        load_checkpoint(path, "f" * 64)  # still loads cleanly

    def test_temp_files_never_offered_for_resume(self, tmp_path):
        save_checkpoint(checkpoint_path(tmp_path, 2), _ckpt(2))
        # A writer killed between write and rename leaves its temp file.
        orphan = tmp_path / f"mcl-iter-0009.ckpt.npz.tmp-{os.getpid()}"
        orphan.write_bytes(b"half a checkpoint")
        best = latest_checkpoint(tmp_path)
        assert best is not None and best.name == "mcl-iter-0002.ckpt.npz"

    def test_save_creates_parent_directories(self, tmp_path):
        path = checkpoint_path(tmp_path / "a" / "b", 1)
        save_checkpoint(path, _ckpt(1))
        assert path.exists()


# ---------------------------------------------------------------------------
# Fingerprint discipline
# ---------------------------------------------------------------------------


BASE_CONFIG = dict(nodes=4)
BASE_OPTIONS = dict(inflation=2.0, select_number=30)


def _fingerprint(config_kwargs=BASE_CONFIG, options_kwargs=BASE_OPTIONS):
    return config_fingerprint(
        HipMCLConfig.optimized(**config_kwargs),
        MclOptions(**options_kwargs),
    )


class TestConfigFingerprint:
    def test_stable_for_equal_inputs(self):
        assert _fingerprint() == _fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"inflation": 3.0},
            {"prune_threshold": 1e-3},
            {"select_number": 31},
            {"recover_number": 5},
            {"max_iterations": 7},
        ],
    )
    def test_every_option_is_answer_relevant(self, change):
        changed = {**BASE_OPTIONS, **change}
        assert _fingerprint(options_kwargs=changed) != _fingerprint()

    def test_machine_shape_is_answer_relevant(self):
        assert _fingerprint(config_kwargs={"nodes": 16}) != _fingerprint()

    def test_stable_across_processes(self, tmp_path):
        # The digest must not depend on hash randomization, id(), or
        # any other per-process state: a service restarted from nothing
        # must recognize its own checkpoints and cache entries.
        code = (
            "from repro.mcl import MclOptions\n"
            "from repro.mcl.hipmcl import HipMCLConfig\n"
            "from repro.resilience.checkpoint import config_fingerprint\n"
            "print(config_fingerprint(HipMCLConfig.optimized(nodes=4),"
            " MclOptions(inflation=2.0, select_number=30)))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == _fingerprint()

    def test_resume_under_different_options_rejected(self, tmp_path):
        real = _fingerprint()
        path = save_checkpoint(
            checkpoint_path(tmp_path, 1),
            MclCheckpoint(
                iteration=1,
                work=random_csc((8, 8), 0.3, seed=1),
                history=[],
                prev_cf=1.0,
                elapsed_seconds=0.0,
                counters={},
                fingerprint=real,
            ),
        )
        load_checkpoint(path, real)  # same config: accepted
        other = _fingerprint(options_kwargs={**BASE_OPTIONS,
                                             "inflation": 3.0})
        with pytest.raises(CheckpointError, match="different"):
            load_checkpoint(path, other)


class TestGraphFingerprint:
    def test_content_not_identity(self):
        a = random_csc((30, 30), 0.2, seed=5)
        b = random_csc((30, 30), 0.2, seed=5)  # distinct object, same bits
        assert a is not b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_single_value_change_splits(self):
        a = random_csc((30, 30), 0.2, seed=5)
        b = random_csc((30, 30), 0.2, seed=5)
        b.data[0] += 1e-12
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_cache_key_folds_graph_and_config(self):
        a = random_csc((30, 30), 0.2, seed=5)
        b = random_csc((30, 30), 0.2, seed=6)
        cfg = HipMCLConfig.optimized(nodes=4)
        opt = MclOptions(**BASE_OPTIONS)
        opt2 = MclOptions(**{**BASE_OPTIONS, "inflation": 3.0})
        base = job_cache_key(a, cfg, opt)
        assert job_cache_key(b, cfg, opt) != base  # graph matters
        assert job_cache_key(a, cfg, opt2) != base  # options matter
        assert job_cache_key(a, cfg, opt) == base  # deterministic
