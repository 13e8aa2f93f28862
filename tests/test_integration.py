"""Integration tests: whole-pipeline behaviour across module boundaries."""

import numpy as np

from repro.mcl import MclOptions, markov_cluster
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.nets import load, planted_network, rmat_network

from helpers import adjusted_rand_index, labels_equivalent


class TestEndToEnd:
    def test_catalog_archaea_clusters_well(self):
        from repro.nets import entry

        net = load("archaea-xs", seed=0)
        res = markov_cluster(net.matrix, entry("archaea-xs").options())
        assert res.converged
        ari = adjusted_rand_index(res.labels, net.true_labels)
        assert ari > 0.7

    def test_distributed_catalog_run_matches_reference(self):
        from repro.nets import entry

        net = load("archaea-xs", seed=0)
        opts = entry("archaea-xs").options()
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(
            net.matrix, opts,
            HipMCLConfig.optimized(
                nodes=16,
                memory_budget_bytes=entry("archaea-xs").memory_budget_bytes,
            ),
        )
        assert labels_equivalent(res.labels, ref.labels)
        assert res.iterations == ref.iterations

    def test_cf_trajectory_rises_then_falls(self):
        """The regime the paper's kernel selection exploits: cf grows as
        MCL densifies mid-run, then collapses toward 1 at convergence."""
        from repro.nets import entry

        net = load("archaea-xs", seed=0)
        res = markov_cluster(net.matrix, entry("archaea-xs").options())
        cfs = [h.cf for h in res.history]
        assert max(cfs) > 5.0
        assert cfs[-1] < 2.0
        assert np.argmax(cfs) not in (0, len(cfs) - 1)

    def test_rmat_input_terminates(self):
        net = rmat_network(7, edge_factor=4, seed=1)
        res = markov_cluster(
            net.matrix, MclOptions(select_number=20, max_iterations=60)
        )
        assert res.iterations <= 60
        assert len(res.labels) == net.n_vertices

    def test_weighted_vs_pattern_clusters_differ_or_match_sanely(self):
        net = planted_network(
            150, intra_degree=12, inter_degree=2, seed=11
        )
        res = markov_cluster(net.matrix, MclOptions(select_number=20))
        assert 1 <= res.n_clusters <= 150


class TestFailureInjection:
    def test_gpu_oom_run_still_correct(self):
        """A 4 KB GPU forces every offload to fall back to CPU hash; the
        clustering must be unaffected."""
        from repro.machine import SUMMIT_LIKE

        net = planted_network(
            150, intra_degree=12, inter_degree=1, seed=13
        )
        opts = MclOptions(select_number=18)
        ref = markov_cluster(net.matrix, opts)
        spec = SUMMIT_LIKE.with_overrides(gpu_memory_bytes=4096)
        res = hipmcl(
            net.matrix, opts,
            HipMCLConfig.optimized(nodes=16, spec=spec),
        )
        assert res.gpu_fallbacks > 0 or not any(
            k in res.kernel_selections
            for k in ("nsparse", "rmerge2", "bhsparse")
        )
        assert labels_equivalent(res.labels, ref.labels)

    def test_tiny_memory_budget_many_phases(self):
        net = planted_network(
            150, intra_degree=12, inter_degree=1, seed=13
        )
        opts = MclOptions(select_number=18)
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(
            net.matrix, opts,
            HipMCLConfig.optimized(nodes=4, memory_budget_bytes=1024),
        )
        assert max(h.phases for h in res.history) >= 4
        assert labels_equivalent(res.labels, ref.labels)

    def test_disconnected_graph(self):
        # Two components with zero cross edges: MCL must find both.
        a = planted_network(40, intra_degree=8, inter_degree=0, seed=1,
                            min_cluster=40, max_cluster=40)
        b = planted_network(40, intra_degree=8, inter_degree=0, seed=2,
                            min_cluster=40, max_cluster=40)
        import numpy as np

        from repro.sparse import csc_from_triples
        from repro.sparse import _compressed as _c

        cols_a = _c.expand_major(a.matrix.indptr, 40)
        cols_b = _c.expand_major(b.matrix.indptr, 40)
        mat = csc_from_triples(
            (80, 80),
            np.concatenate((a.matrix.indices, b.matrix.indices + 40)),
            np.concatenate((cols_a, cols_b + 40)),
            np.concatenate((a.matrix.data, b.matrix.data)),
        )
        res = markov_cluster(mat, MclOptions(select_number=12))
        assert res.n_clusters >= 2
        labels = res.labels
        assert len(set(labels[:40]) & set(labels[40:])) == 0

    def test_star_graph_hub(self):
        # A star: hub plus leaves — degenerate but must terminate cleanly.
        import numpy as np

        from repro.sparse import csc_from_triples, symmetrize_max

        n = 30
        rows = np.zeros(n - 1, dtype=np.int64)
        cols = np.arange(1, n, dtype=np.int64)
        mat = symmetrize_max(
            csc_from_triples((n, n), rows, cols, np.ones(n - 1))
        )
        res = markov_cluster(mat, MclOptions())
        assert res.converged
        assert res.n_clusters == 1

    def test_selection_tighter_than_graph_changes_clusters_gracefully(self):
        net = planted_network(120, intra_degree=14, inter_degree=1, seed=15)
        res = markov_cluster(net.matrix, MclOptions(select_number=3))
        assert res.iterations >= 1 and len(res.labels) == 120


class TestScaleInvariantsAccounting:
    def test_more_nodes_never_increase_total_flops(self):
        net = planted_network(150, intra_degree=12, inter_degree=1, seed=17)
        opts = MclOptions(select_number=18)
        flops = {}
        for nodes in (4, 16):
            res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=nodes))
            flops[nodes] = sum(h.flops for h in res.history)
        assert flops[4] == flops[16]  # work is invariant, only split differs

    def test_window_idle_reported(self):
        net = planted_network(150, intra_degree=12, inter_degree=1, seed=19)
        res = hipmcl(
            net.matrix, MclOptions(select_number=18),
            HipMCLConfig.optimized(nodes=16),
        )
        assert res.gpu_window_idle_seconds >= 0.0
        assert res.cpu_window_idle_seconds >= 0.0
        # Window idleness is no larger than whole-run idleness.
        assert res.gpu_window_idle_seconds <= res.gpu_idle_seconds + 1e-12
