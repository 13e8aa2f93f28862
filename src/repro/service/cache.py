"""The result cache: memoized labels keyed by (graph, config) fingerprint.

One entry per cache key — an ``.npz`` holding the label array verbatim
plus a JSON metadata blob (cluster count, iteration history, elapsed
simulated seconds).  Entries are written atomically (temp file + rename
in the same directory) so a runner killed mid-``put`` can never leave a
truncated entry for a later ``get`` to trust; a corrupt entry reads as a
miss and is recomputed, never served.

The key (:func:`repro.service.jobs.job_cache_key`) folds in the exact
``config_fingerprint`` that guards checkpoint resumption, so a hit is by
construction the result the run would have produced — serving it skips
the computation without changing the answer.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CachedResult:
    """A memoized clustering result (the bit-identity-relevant fields)."""

    labels: np.ndarray
    n_clusters: int
    iterations: int
    converged: bool
    elapsed_seconds: float
    history: list  # of dicts (HipMCLIteration.asdict)


class ResultCache:
    """Directory of memoized results, one ``<key>.npz`` per cache key."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def get(self, key: str, n: int | None = None) -> CachedResult | None:
        """The memoized result for ``key``, or ``None`` (miss/corrupt).

        An entry that does not parse into a :class:`CachedResult` — and,
        given ``n`` (the job graph's vertex count), one whose labels are
        not one per vertex — is corrupt: a miss, recomputed, never served.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                labels = npz["labels"]
                meta = json.loads(str(npz["meta"]))
            cached = CachedResult(
                labels=labels,
                n_clusters=int(meta["n_clusters"]),
                iterations=int(meta["iterations"]),
                converged=bool(meta["converged"]),
                elapsed_seconds=float(meta["elapsed_seconds"]),
                history=list(meta["history"]),
            )
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError, zipfile.BadZipFile):
            return None  # corrupt entry: treat as a miss, recompute
        if labels.ndim != 1 or (n is not None and len(labels) != n):
            return None
        return cached

    def put(self, key: str, result) -> Path:
        """Memoize a finished :class:`~repro.mcl.hipmcl.HipMCLResult`."""
        from dataclasses import asdict

        meta = {
            "n_clusters": int(result.n_clusters),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "elapsed_seconds": float(result.elapsed_seconds),
            "history": [asdict(h) for h in result.history],
        }
        path = self._path(key)
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    labels=np.asarray(result.labels),
                    meta=np.array(json.dumps(meta)),
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failed write never leaves debris
                tmp.unlink()
        return path
