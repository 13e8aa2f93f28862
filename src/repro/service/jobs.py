"""Job specifications and the cache/checkpoint key discipline.

A :class:`JobSpec` is the JSON-serializable description of one clustering
job: where the graph comes from, the clustering options, and the machine
configuration.  The wall-clock execution knob (``workers``) rides along
but is **excluded from the cache key** — every worker count is pinned
bit-identical, so it cannot change the answer, only how fast it arrives.
This mirrors the checkpoint fingerprint contract: a job checkpointed at
one worker count resumes at any other.

The cache key is ``sha256(graph_fingerprint || config_fingerprint)``:

* :func:`graph_fingerprint` digests the loaded matrix's *content* (shape,
  dtypes, and the raw ``indptr``/``indices``/``data`` bytes), so two
  paths holding the same graph — or the same catalog network regenerated
  from its seed — share a key;
* :func:`~repro.resilience.checkpoint.config_fingerprint` digests the
  ``(HipMCLConfig, MclOptions)`` pair, the exact key that already guards
  checkpoint resumption — which is what makes serving memoized labels
  safe: equal key ⇒ bit-identical run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ServiceError
from ..mcl.hipmcl import HipMCLConfig
from ..mcl.options import MclOptions
from ..resilience.checkpoint import config_fingerprint

#: Distributed driver modes a job may request (the CLI's --mode choices
#: minus the sequential reference, which has no checkpoint story).
JOB_MODES = ("optimized", "original", "cpu")


def graph_fingerprint(matrix) -> str:
    """Stable content digest of a CSC matrix (shape, dtypes, raw bytes).

    The index arrays are digested in their ``int64`` form whatever the
    host's index dtype, so a key never changes with that dtype and the
    result cache keeps its hits.
    """
    h = hashlib.sha256()
    h.update(f"{matrix.nrows}x{matrix.ncols}".encode())
    for arr, dtype in (
        (matrix.indptr, np.int64),
        (matrix.indices, np.int64),
        (matrix.data, np.float64),
    ):
        a = np.ascontiguousarray(arr, dtype=dtype)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def job_cache_key(matrix, config, options, delta=None) -> str:
    """The result-cache key: graph content x run configuration.

    Delta jobs key on ``(base graph fingerprint, delta fingerprint,
    config fingerprint)`` — the base graph's own key is recoverable by
    dropping the delta component, which is how the runner finds the
    converged base labels to warm-start from, and a resubmitted delta
    against the same base hits the cache without re-clustering.
    """
    parts = [graph_fingerprint(matrix)]
    if delta is not None:
        parts.append(delta.fingerprint())
    parts.append(config_fingerprint(config, options))
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One clustering job, JSON-round-trippable (``to_dict``/``from_dict``).

    ``graph`` is either a filesystem path to a ``.mtx``/``.abc`` network
    or ``"catalog:<name>"`` / ``"catalog:<name>:<seed>"`` for a built-in
    network.  ``options`` holds :class:`MclOptions` kwargs; ``config``
    holds extra :class:`HipMCLConfig` kwargs (``memory_budget_bytes``,
    ``seed``, ...) applied on top of the ``mode`` constructor.
    """

    graph: str
    mode: str = "optimized"
    nodes: int = 16
    options: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    # Wall-clock knob: never part of the cache key (bit-identical).
    workers: int | str | None = None
    #: Optional edge delta (``{"add": [[i, j, w], ...], "remove":
    #: [[i, j], ...]}``) making this an incremental re-clustering job:
    #: ``graph`` is then the *base* graph and the run clusters the
    #: patched graph, warm-starting from the base job's cached labels
    #: when available.  Unlike ``workers``, the delta changes the
    #: answer, so it enters the cache key.
    delta: dict | None = None

    def __post_init__(self):
        if self.mode not in JOB_MODES:
            raise ServiceError(
                f"unknown job mode {self.mode!r}; options: {list(JOB_MODES)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        if isinstance(d, dict) and "backend" in d:
            # Specs stored before the process backend was removed carry a
            # "backend" key; it never entered the cache key or the answer.
            d = {k: v for k, v in d.items() if k != "backend"}
        try:
            return cls(**d)
        except TypeError as exc:
            raise ServiceError(f"malformed job spec: {exc}") from None

    # -- materialization -------------------------------------------------

    def load_graph(self):
        """Load the job's matrix (and vertex labels for ``.abc`` inputs)."""
        if self.graph.startswith("catalog:"):
            from ..nets import catalog

            parts = self.graph.split(":")
            name = parts[1]
            seed = int(parts[2]) if len(parts) > 2 else 0
            try:
                net = catalog.load(name, seed=seed)
            except KeyError:
                raise ServiceError(
                    f"unknown catalog network {name!r}"
                ) from None
            return net.matrix, None
        if str(self.graph).endswith(".abc"):
            from ..sparse import read_abc

            return read_abc(self.graph, symmetrize=True)
        from ..sparse import read_matrix_market

        return read_matrix_market(self.graph), None

    def build_options(self) -> MclOptions:
        try:
            return MclOptions(**self.options)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad job options: {exc}") from None

    def build_config(self) -> HipMCLConfig:
        ctor = {
            "optimized": HipMCLConfig.optimized,
            "original": HipMCLConfig.original,
            "cpu": HipMCLConfig.optimized_cpu,
        }[self.mode]
        try:
            return ctor(nodes=self.nodes, **self.config)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad job config: {exc}") from None

    def load_delta(self, matrix):
        """Materialize the job's :class:`~repro.locality.GraphDelta`."""
        if self.delta is None:
            return None
        from ..locality import GraphDelta
        from ..errors import LocalityError

        try:
            return GraphDelta.from_payload(matrix.ncols, self.delta)
        except (LocalityError, TypeError, ValueError, IndexError) as exc:
            raise ServiceError(f"bad job delta: {exc}") from None

    def cache_key(self, matrix=None) -> str:
        """The job's result-cache key (loads the graph unless given)."""
        if matrix is None:
            matrix, _ = self.load_graph()
        return job_cache_key(
            matrix, self.build_config(), self.build_options(),
            delta=self.load_delta(matrix),
        )

    def base_cache_key(self, matrix) -> str:
        """The key of the *base* job this delta job would warm-start from
        (this job's own key with the delta component dropped)."""
        return job_cache_key(matrix, self.build_config(), self.build_options())
