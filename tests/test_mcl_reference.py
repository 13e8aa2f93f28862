"""Tests for the sequential reference MCL."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ReproError, ShapeError, WeightError
from repro.mcl import MclOptions, expand, markov_cluster, prepare_matrix
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.sparse import CSCMatrix, csc_from_triples, random_csc
from repro.spgemm import spgemm_hash, spgemm_heap

from helpers import adjusted_rand_index


class TestPrepare:
    def test_column_stochastic(self, square_matrix):
        work = prepare_matrix(square_matrix, MclOptions())
        assert np.allclose(work.column_sums(), 1.0)

    def test_self_loops_present(self, square_matrix):
        work = prepare_matrix(square_matrix, MclOptions())
        assert np.all(np.diag(work.to_dense()) > 0)

    def test_no_self_loops_when_disabled(self):
        mat = csc_from_triples((2, 2), [0, 1], [1, 0], [1.0, 1.0])
        work = prepare_matrix(mat, MclOptions(add_self_loops=False))
        assert np.all(np.diag(work.to_dense()) == 0)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            prepare_matrix(random_csc((3, 4), 0.5, 1), MclOptions())

    def test_rejects_negative_weights(self):
        mat = CSCMatrix.from_dense([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(WeightError):
            prepare_matrix(mat, MclOptions())

    @pytest.mark.parametrize("run", [
        lambda m: markov_cluster(m, MclOptions()),
        lambda m: hipmcl(m, MclOptions(), HipMCLConfig.optimized(nodes=4)),
        lambda m: hipmcl(m, MclOptions(), HipMCLConfig.original(nodes=4)),
    ], ids=["reference", "optimized", "original"])
    def test_hostile_input_never_reaches_the_clustering(self, run):
        with pytest.raises(ShapeError):
            run(random_csc((3, 4), 0.5, 1))
        # Two connected vertices.  A NaN weight used to pass the
        # ``min() < 0`` test and come back as two singletons.
        for bad in (-1.0, np.nan, np.inf):
            mat = csc_from_triples((2, 2), [0, 1], [1, 0], [bad, 1.0])
            with pytest.raises(WeightError):
                run(mat)
        # Typed, and still caught by pre-existing ``except ValueError``.
        assert issubclass(WeightError, ReproError)
        assert issubclass(WeightError, ValueError)


class TestExpand:
    def test_slabbed_expansion_equals_full(self, square_matrix):
        opts = MclOptions(select_number=6)
        work = prepare_matrix(square_matrix, opts)
        full, nnz_full, _ = expand(work, opts)
        for slab in (1, 7, 33, 80, 200):
            part, nnz_part, _ = expand(work, opts, slab_columns=slab)
            assert nnz_part == nnz_full
            assert part.same_pattern_and_values(full, tol=1e-12), slab

    def test_bad_slab_size(self, square_matrix):
        opts = MclOptions()
        work = prepare_matrix(square_matrix, opts)
        with pytest.raises(ValueError):
            expand(work, opts, slab_columns=0)


class TestClustering:
    def test_recovers_planted_partition(self, tiny_network, tiny_options):
        res = markov_cluster(tiny_network.matrix, tiny_options)
        assert res.converged
        ari = adjusted_rand_index(res.labels, tiny_network.true_labels)
        assert ari > 0.75

    def test_two_cliques(self):
        # Two 4-cliques joined by nothing: exactly two clusters.
        import itertools

        rows, cols = [], []
        for base in (0, 4):
            for i, j in itertools.permutations(range(base, base + 4), 2):
                rows.append(i)
                cols.append(j)
        mat = csc_from_triples((8, 8), rows, cols, np.ones(len(rows)))
        res = markov_cluster(mat, MclOptions())
        assert res.n_clusters == 2
        assert res.converged

    def test_deterministic(self, tiny_network, tiny_options):
        r1 = markov_cluster(tiny_network.matrix, tiny_options)
        r2 = markov_cluster(tiny_network.matrix, tiny_options)
        assert np.array_equal(r1.labels, r2.labels)

    def test_kernel_pluggable(self, tiny_network, tiny_options):
        base = markov_cluster(tiny_network.matrix, tiny_options)
        for kern in (spgemm_heap, spgemm_hash):
            res = markov_cluster(
                tiny_network.matrix, tiny_options, spgemm=kern
            )
            assert np.array_equal(res.labels, base.labels), kern.__name__

    def test_history_records_iterations(self, tiny_network, tiny_options):
        res = markov_cluster(tiny_network.matrix, tiny_options)
        assert len(res.history) == res.iterations
        first = res.history[0]
        assert first.flops > 0 and first.nnz_expanded > 0
        assert first.cf == pytest.approx(first.flops / first.nnz_expanded)

    def test_chaos_decreases_to_convergence(self, tiny_network, tiny_options):
        res = markov_cluster(tiny_network.matrix, tiny_options)
        assert res.history[-1].chaos < tiny_options.chaos_threshold

    def test_final_matrix_kept_on_request(self, tiny_network, tiny_options):
        res = markov_cluster(
            tiny_network.matrix, tiny_options, keep_final_matrix=True
        )
        assert res.final_matrix is not None
        assert res.final_matrix.shape == tiny_network.matrix.shape

    def test_no_convergence_raises_when_asked(self, tiny_network):
        opts = MclOptions(max_iterations=1, select_number=25)
        with pytest.raises(ConvergenceError):
            markov_cluster(
                tiny_network.matrix, opts, raise_on_no_convergence=True
            )

    def test_no_convergence_soft_by_default(self, tiny_network):
        opts = MclOptions(max_iterations=1, select_number=25)
        res = markov_cluster(tiny_network.matrix, opts)
        assert not res.converged and res.iterations == 1

    def test_singleton_graph(self):
        mat = CSCMatrix.empty((1, 1))
        res = markov_cluster(mat, MclOptions())
        assert res.n_clusters == 1

    def test_clusters_listing_covers_all_vertices(
        self, tiny_network, tiny_options
    ):
        res = markov_cluster(tiny_network.matrix, tiny_options)
        groups = res.clusters()
        seen = sorted(v for g in groups for v in g)
        assert seen == list(range(tiny_network.n_vertices))

    def test_slabbed_run_identical(self, tiny_network, tiny_options):
        full = markov_cluster(tiny_network.matrix, tiny_options)
        slabbed = markov_cluster(
            tiny_network.matrix, tiny_options, expand_slab_columns=37
        )
        assert np.array_equal(full.labels, slabbed.labels)
