"""Incremental re-clustering: warm-start MCL from a converged result.

Streaming graphs change by small edge deltas; re-running MCL from
scratch re-derives a fixpoint that is unchanged almost everywhere.  The
exact unit of trajectory independence in this driver is the *connected
component*: a column's expansion products, pruning, and inflation only
ever read entries inside its own component, so a component whose induced
subgraph is untouched by the delta replays the base run's trajectory
bit-for-bit.  Warm start therefore

1. applies the :class:`GraphDelta` to the base graph,
2. marks every patched-graph component containing a delta endpoint as
   *dirty* (any component split off by removals contains an endpoint of
   a removed edge, and any component merged by additions contains an
   endpoint of an added edge — so clean components are exactly the base
   components whose subgraphs are unchanged),
3. runs ``hipmcl`` cold on the induced subgraph of the dirty vertices
   only, and
4. stitches: clean vertices keep their base cluster, dirty vertices take
   the sub-run's clusters, and :func:`~repro.mcl.components
   .canonical_labels` renumbers by smallest member — the same canonical
   form a cold run on the whole patched graph produces.

The wall-clock win scales with the clean fraction; the worst case (one
giant component) degrades gracefully to the cold run.  The induced
subgraph keeps vertices in ascending id order, so its columns' row
order — and hence every floating-point sum — matches the corresponding
columns of a cold whole-graph run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import LocalityError
from ..sparse import CSCMatrix, csc_from_triples
from ..sparse import _compressed as _c


@dataclass(frozen=True, eq=False)
class GraphDelta:
    """A symmetric edge patch: edges to add and edges to remove.

    Both lists are applied undirected — each pair is mirrored to keep
    the matrix pattern symmetric, matching the similarity-graph inputs
    MCL consumes.  Removing an absent edge is a no-op; adding an edge
    that already exists accumulates onto the stored weight.
    """

    n: int
    add_rows: np.ndarray
    add_cols: np.ndarray
    add_vals: np.ndarray
    remove_rows: np.ndarray
    remove_cols: np.ndarray

    @classmethod
    def from_edges(cls, n: int, add=(), remove=()) -> "GraphDelta":
        """Build from iterables of ``(i, j, weight)`` and ``(i, j)``.

        Every edge goes through here (delta files, service payloads, the
        generators), so it rejects a vertex outside ``[0, n)`` and an
        ``add`` weight that is negative or not finite before any run.
        """
        add = list(add)
        remove = list(remove)
        ar = np.asarray([e[0] for e in add], dtype=np.int64)
        ac = np.asarray([e[1] for e in add], dtype=np.int64)
        av = np.asarray([e[2] for e in add], dtype=np.float64)
        rr = np.asarray([e[0] for e in remove], dtype=np.int64)
        rc = np.asarray([e[1] for e in remove], dtype=np.int64)
        for name, arr in (("add", ar), ("add", ac), ("remove", rr),
                          ("remove", rc)):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise LocalityError(
                    f"{name} edges reference vertices outside [0, {n})"
                )
        bad = av[~(np.isfinite(av) & (av >= 0))]
        if len(bad):
            raise LocalityError(
                f"add weights must be finite and non-negative, got {bad[0]}"
            )
        return cls(int(n), ar, ac, av, rr, rc)

    @property
    def num_edges(self) -> int:
        return len(self.add_rows) + len(self.remove_rows)

    @property
    def endpoints(self) -> np.ndarray:
        """Sorted unique vertex ids touched by the delta."""
        return np.unique(
            np.concatenate(
                [self.add_rows, self.add_cols,
                 self.remove_rows, self.remove_cols]
            )
        ) if self.num_edges else np.empty(0, dtype=np.int64)

    def fingerprint(self) -> str:
        """Content digest over the canonically ordered edge lists."""
        h = hashlib.sha256()
        h.update(f"delta:{self.n}".encode())
        order = np.lexsort((self.add_cols, self.add_rows))
        for arr in (self.add_rows[order], self.add_cols[order],
                    self.add_vals[order]):
            h.update(np.ascontiguousarray(arr).tobytes())
        order = np.lexsort((self.remove_cols, self.remove_rows))
        for arr in (self.remove_rows[order], self.remove_cols[order]):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def apply(self, matrix: CSCMatrix) -> CSCMatrix:
        """The patched graph: removals first, then mirrored additions."""
        if matrix.nrows != matrix.ncols or matrix.ncols != self.n:
            raise LocalityError(
                f"delta covers {self.n} vertices, matrix is {matrix.shape}"
            )
        base = matrix.sum_duplicates().pruned_zeros()
        n = self.n
        rows = base.indices
        cols = _c.expand_major(base.indptr, n)
        vals = base.data
        if len(self.remove_rows):
            rm = np.unique(np.concatenate([
                self.remove_rows * n + self.remove_cols,
                self.remove_cols * n + self.remove_rows,
            ]))
            keep = ~np.isin(rows * np.int64(n) + cols, rm)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if len(self.add_rows):
            mirror = self.add_rows != self.add_cols
            rows = np.concatenate(
                [rows, self.add_rows, self.add_cols[mirror]]
            )
            cols = np.concatenate(
                [cols, self.add_cols, self.add_rows[mirror]]
            )
            vals = np.concatenate(
                [vals, self.add_vals, self.add_vals[mirror]]
            )
        return csc_from_triples((n, n), rows, cols, vals, sum_dup=True)

    # -- JSON round-trip (service job specs) -----------------------------

    def to_payload(self) -> dict:
        return {
            "add": [
                [int(r), int(c), float(v)]
                for r, c, v in zip(self.add_rows, self.add_cols,
                                   self.add_vals)
            ],
            "remove": [
                [int(r), int(c)]
                for r, c in zip(self.remove_rows, self.remove_cols)
            ],
        }

    @classmethod
    def from_payload(cls, n: int, payload: dict) -> "GraphDelta":
        return cls.from_edges(
            n, payload.get("add", ()), payload.get("remove", ())
        )


@dataclass(frozen=True, eq=False)
class WarmStart:
    """A converged base clustering plus the delta that invalidates it.

    Passed to ``hipmcl(warm_start=...)`` together with the *base*
    (unpatched) matrix; the driver applies the delta itself.
    """

    labels: np.ndarray
    delta: GraphDelta


def dirty_vertices(patched: CSCMatrix, delta: GraphDelta) -> np.ndarray:
    """Sorted vertex ids of patched-graph components touched by the delta."""
    from ..mcl.components import connected_components

    endpoints = delta.endpoints
    if not len(endpoints):
        return np.empty(0, dtype=np.int64)
    comp = connected_components(patched)
    return np.flatnonzero(np.isin(comp, np.unique(comp[endpoints])))


def induced_subgraph(matrix: CSCMatrix, vertices: np.ndarray) -> CSCMatrix:
    """Extract the subgraph on ``vertices`` (sorted ascending ids).

    The vertex order is monotone, so each column's row indices stay in
    the same relative order as in the full matrix — any column-wise
    reduction over the subgraph sums in the same order as over the full
    graph, which is what makes warm-started trajectories bit-identical.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    n = matrix.ncols
    k = len(vertices)
    vmap = np.full(n, -1, dtype=np.int64)
    vmap[vertices] = np.arange(k, dtype=np.int64)
    lens = (matrix.indptr[vertices + 1] - matrix.indptr[vertices])
    total = int(lens.sum())
    if total == 0:
        return CSCMatrix.empty((k, k))
    # Gather the selected columns' entry ranges in one vectorized pass.
    firsts = matrix.indptr[vertices]
    offsets = np.repeat(
        firsts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
    )
    pos = np.arange(total, dtype=np.int64) + offsets
    rows = vmap[matrix.indices[pos]]
    cols = np.repeat(np.arange(k, dtype=np.int64), lens)
    keep = rows >= 0  # all true when vertices close a set of components
    return csc_from_triples(
        (k, k), rows[keep], cols[keep], matrix.data[pos][keep],
        sum_dup=False,
    )


def run_warm_start(
    matrix: CSCMatrix, warm: WarmStart, options=None, config=None,
    *, trace=None, **run_kwargs,
) -> "object":
    """Re-cluster ``matrix ⊕ warm.delta`` starting from ``warm.labels``.

    Returns a ``HipMCLResult`` whose labels are identical to a cold
    ``hipmcl`` run on the patched graph (the delta-equivalence suite
    certifies this); iteration history and clock accounting describe the
    dirty sub-run only.
    """
    from ..mcl.components import canonical_labels
    from ..mcl.hipmcl import HipMCLResult, hipmcl

    delta = warm.delta
    base_labels = np.asarray(warm.labels, dtype=np.int64)
    if len(base_labels) != matrix.ncols:
        raise LocalityError(
            f"warm-start labels cover {len(base_labels)} vertices, "
            f"matrix has {matrix.ncols}"
        )
    patched = delta.apply(matrix)
    dirty = dirty_vertices(patched, delta)
    n = patched.ncols
    if trace is not None:
        trace.metric(
            "locality.delta.dirty", len(dirty), total=n,
            delta_edges=delta.num_edges,
        )
    if len(dirty) == 0:
        labels = canonical_labels(base_labels)
        return HipMCLResult(
            labels=labels,
            n_clusters=int(labels.max()) + 1 if len(labels) else 0,
            iterations=0,
            converged=True,
            elapsed_seconds=0.0,
            stage_means={},
            cpu_idle_seconds=0.0,
            gpu_idle_seconds=0.0,
            kernel_selections={},
            gpu_fallbacks=0,
            bytes_communicated=0,
        )
    if len(dirty) == n:
        # Every component is touched: nothing to warm, run cold.
        return hipmcl(patched, options, config, trace=trace, **run_kwargs)
    sub = induced_subgraph(patched, dirty)
    subres = hipmcl(sub, options, config, trace=trace, **run_kwargs)
    raw = base_labels.copy()
    offset = int(raw.max()) + 1 if len(raw) else 0
    raw[dirty] = offset + subres.labels
    labels = canonical_labels(raw)
    return dataclasses.replace(
        subres,
        labels=labels,
        n_clusters=int(labels.max()) + 1 if len(labels) else 0,
    )


def random_delta(
    matrix: CSCMatrix, fraction: float, seed: int, *, add_ratio: float = 0.5,
) -> GraphDelta:
    """A seeded delta touching ``fraction`` of the undirected edges.

    Splits the edge budget into removals of existing edges and additions
    of fresh random edges (weights in ``(0, 1]``).  Deterministic in
    ``(matrix pattern, fraction, seed)`` — the chaos harness and the
    equivalence tests share it.
    """
    base = matrix.sum_duplicates().pruned_zeros()
    n = base.ncols
    rows = base.indices
    cols = _c.expand_major(base.indptr, n)
    upper = np.flatnonzero(rows < cols)
    m = len(upper)
    k = max(1, int(m * fraction))
    rng = np.random.default_rng(seed)
    k_add = int(round(k * add_ratio))
    k_rm = min(k - k_add, m)
    remove = []
    if k_rm:
        pick = rng.choice(m, size=k_rm, replace=False)
        remove = [
            (int(rows[upper[p]]), int(cols[upper[p]])) for p in pick
        ]
    add = []
    for _ in range(k_add):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            j = (j + 1) % n
        add.append((i, j, float(1.0 - rng.random())))
    return GraphDelta.from_edges(n, add, remove)


def localized_delta(
    matrix: CSCMatrix, k: int, seed: int, *, add_ratio: float = 0.5,
) -> GraphDelta:
    """A seeded ``k``-edge delta confined to the largest component.

    Incremental re-clustering pays off exactly when the delta is *local*
    — a scattered delta dirties most components and the warm start
    degenerates to a full rerun.  This generator models the local case
    (the benchmark's ``delta-warm`` workload and the warm-vs-cold test
    share it): additions pair vertices inside the largest connected
    component, removals sample that component's existing edges, so every
    other component stays clean.
    """
    from ..mcl.components import connected_components

    base = matrix.sum_duplicates().pruned_zeros()
    n = base.ncols
    comp = connected_components(base)
    if not len(comp):
        return GraphDelta.from_edges(n, [], [])
    target = int(np.argmax(np.bincount(comp)))
    verts = np.flatnonzero(comp == target)
    rows = base.indices
    cols = _c.expand_major(base.indptr, n)
    inside = np.flatnonzero(
        (rows < cols) & (comp[rows] == target) & (comp[cols] == target)
    )
    rng = np.random.default_rng(seed)
    k = max(1, int(k))
    k_add = int(round(k * add_ratio)) if len(verts) >= 2 else 0
    k_rm = min(k - k_add, len(inside))
    add = []
    for _ in range(k_add):
        i, j = rng.choice(verts, size=2, replace=False)
        add.append((int(i), int(j), float(1.0 - rng.random())))
    remove = []
    if k_rm:
        pick = rng.choice(len(inside), size=k_rm, replace=False)
        remove = [
            (int(rows[inside[p]]), int(cols[inside[p]])) for p in pick
        ]
    return GraphDelta.from_edges(n, add, remove)


def parse_delta_lines(lines) -> tuple:
    """Parse the CLI delta format: ``add i j [w]`` / ``remove i j`` lines.

    The weight defaults to 1.0 when omitted.  Blank lines and ``#``
    comments are skipped.  Returns ``(add, remove)`` tuple lists suitable
    for :meth:`GraphDelta.from_edges` / the service job payload.
    """
    add, remove = [], []
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        try:
            if parts[0] == "add" and len(parts) in (3, 4):
                w = float(parts[3]) if len(parts) == 4 else 1.0
                add.append((int(parts[1]), int(parts[2]), w))
                continue
            if parts[0] == "remove" and len(parts) == 3:
                remove.append((int(parts[1]), int(parts[2])))
                continue
        except ValueError:
            pass
        raise LocalityError(
            f"line {lineno}: expected 'add i j [w]' or 'remove i j', "
            f"got {line.strip()!r}"
        )
    return add, remove


def read_delta_file(path) -> tuple:
    """Read a delta file (see :func:`parse_delta_lines`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_delta_lines(fh)
