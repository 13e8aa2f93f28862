"""Relabel invariance: the clustering does not depend on vertex names.

Physically permuting a graph's vertices, clustering it, and mapping the
labels back must recover the same canonical clustering as the
unpermuted run — the oracle behind ``bench/workloads.py::relabel``,
which renames every benchmark input with a seeded permutation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcl.components import canonical_labels
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.mcl.options import MclOptions
from repro.nets import rmat_network
from repro.sparse import _compressed as _c
from repro.sparse import csc_from_triples

OPTS = MclOptions(select_number=12, max_iterations=40)


def _rmat(scale: int, edge_factor: int, seed: int):
    return rmat_network(scale, edge_factor, seed=seed).matrix


def _perm(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


@given(
    scale=st.integers(3, 5),
    edge_factor=st.integers(2, 6),
    net_seed=st.integers(0, 10_000),
    perm_seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_permute_cluster_unpermute_recovers_clustering(
    scale, edge_factor, net_seed, perm_seed
):
    """Renaming vertex ``v`` to ``perm[v]``, clustering, and reading the
    labels back at ``perm`` recovers the unpermuted run's canonical
    clustering."""
    mat = _rmat(scale, edge_factor, net_seed)
    cfg = HipMCLConfig.optimized(nodes=4)
    ref = hipmcl(mat, OPTS, cfg)
    n = mat.ncols
    perm = _perm(n, perm_seed)
    cols = _c.expand_major(mat.indptr, n)
    permuted = csc_from_triples(
        (n, n), perm[mat.indices], perm[cols], mat.data, sum_dup=False
    )
    run = hipmcl(permuted, OPTS, cfg)
    restored = canonical_labels(np.asarray(run.labels)[perm])
    assert np.array_equal(restored, canonical_labels(np.asarray(ref.labels)))
