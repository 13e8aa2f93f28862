"""Tests for pruning, inflation, chaos, and connected components."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.mcl import (
    MclOptions,
    UnionFind,
    chaos,
    clusters_from_labels,
    connected_components,
    inflate,
    prune_columns,
)
from repro.sparse import CSCMatrix, csc_from_triples, random_csc


class TestOptionsValidation:
    def test_defaults_valid(self):
        MclOptions()

    def test_inflation_must_exceed_one(self):
        with pytest.raises(ValueError):
            MclOptions(inflation=1.0)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            MclOptions(prune_threshold=-0.1)

    def test_recover_above_select_rejected(self):
        with pytest.raises(ValueError):
            MclOptions(select_number=10, recover_number=20)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            MclOptions(max_iterations=0)

    def test_bad_chaos_threshold(self):
        with pytest.raises(ValueError):
            MclOptions(chaos_threshold=0.0)


class TestPrune:
    def test_threshold_only(self):
        mat = CSCMatrix.from_dense([[0.5, 0.05], [0.2, 0.9]])
        out, stats = prune_columns(
            mat, MclOptions(prune_threshold=0.1, select_number=0)
        )
        assert out.nnz == 3
        assert stats.cutoff_dropped == 1
        assert stats.entries_in == 4 and stats.entries_out == 3

    def test_topk_selection(self):
        col = np.array([[0.9], [0.8], [0.7], [0.6]])
        mat = CSCMatrix.from_dense(col)
        out, stats = prune_columns(
            mat, MclOptions(prune_threshold=0.0, select_number=2)
        )
        dense = out.to_dense().ravel()
        assert (dense > 0).sum() == 2
        assert dense[0] == 0.9 and dense[1] == 0.8
        assert stats.select_dropped == 2

    def test_selection_counts_only_survivors(self):
        # Cutoff victims must not consume top-k slots.
        col = np.array([[0.9], [0.0001], [0.0001], [0.5]])
        mat = CSCMatrix.from_dense(col)
        out, _ = prune_columns(
            mat, MclOptions(prune_threshold=0.01, select_number=2)
        )
        dense = out.to_dense().ravel()
        assert dense[0] == 0.9 and dense[3] == 0.5

    def test_recovery_rescues_emptied_column(self):
        col = np.array([[0.003], [0.002], [0.001]])
        mat = CSCMatrix.from_dense(col)
        opts = MclOptions(
            prune_threshold=0.01, select_number=10, recover_number=2
        )
        out, stats = prune_columns(mat, opts)
        dense = out.to_dense().ravel()
        assert (dense > 0).sum() == 2
        assert dense[0] == 0.003 and dense[1] == 0.002
        assert stats.recovered == 2

    def test_empty_matrix(self):
        out, stats = prune_columns(CSCMatrix.empty((3, 3)), MclOptions())
        assert out.nnz == 0 and stats.entries_in == 0

    def test_per_column_independence(self, square_matrix):
        opts = MclOptions(prune_threshold=0.3, select_number=5)
        out, _ = prune_columns(square_matrix, opts)
        assert np.all(out.column_lengths() <= 5)
        assert out.nnz == 0 or out.data.min() >= 0.3

    def test_output_sorted(self, square_matrix):
        out, _ = prune_columns(square_matrix, MclOptions(select_number=3))
        assert out.has_sorted_indices()


class TestInflate:
    def test_inflation_is_power_then_normalize(self, square_matrix):
        from repro.sparse import normalize_columns

        mat = normalize_columns(square_matrix)
        out = inflate(mat, 2.0)
        dense = mat.to_dense() ** 2
        sums = dense.sum(axis=0)
        sums[sums == 0] = 1.0
        assert np.allclose(out.to_dense(), dense / sums)

    def test_inflation_sharpens_columns(self):
        mat = CSCMatrix.from_dense([[0.75], [0.25]])
        out = inflate(mat, 2.0)
        assert out.to_dense()[0, 0] > 0.75


class TestChaos:
    def test_indicator_matrix_has_zero_chaos(self):
        mat = CSCMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        assert chaos(mat) == 0.0

    def test_uniform_column_has_positive_chaos(self):
        mat = CSCMatrix.from_dense([[0.5], [0.5]])
        assert chaos(mat) == pytest.approx(0.0)  # max 0.5, ssq 0.5

    def test_mixing_column_positive(self):
        mat = CSCMatrix.from_dense([[0.6], [0.3], [0.1]])
        assert chaos(mat) == pytest.approx(0.6 - (0.36 + 0.09 + 0.01))

    def test_empty_matrix_zero(self):
        assert chaos(CSCMatrix.empty((0, 0))) == 0.0


class TestUnionFind:
    def test_initial_all_separate(self):
        uf = UnionFind(4)
        assert len(set(uf.find(i) for i in range(4))) == 4

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)  # already together
        assert uf.find(0) == uf.find(1)

    def test_labels_canonical(self):
        uf = UnionFind(5)
        uf.union(0, 4)
        uf.union(1, 2)
        labels = uf.labels()
        assert labels[0] == labels[4]
        assert labels[1] == labels[2]
        assert labels[0] != labels[1] != labels[3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestComponents:
    def test_two_triangles(self):
        rows = [0, 1, 2, 3, 4, 5]
        cols = [1, 2, 0, 4, 5, 3]
        mat = csc_from_triples((6, 6), rows, cols, np.ones(6))
        labels = connected_components(mat)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_isolated_vertices_are_singletons(self):
        mat = CSCMatrix.empty((4, 4))
        labels = connected_components(mat)
        assert len(set(labels.tolist())) == 4

    def test_direction_ignored(self):
        mat = csc_from_triples((3, 3), [0], [2], [1.0])
        labels = connected_components(mat)
        assert labels[0] == labels[2] != labels[1]

    def test_self_loops_ignored(self):
        mat = csc_from_triples((2, 2), [0, 1], [0, 1], [1.0, 1.0])
        labels = connected_components(mat)
        assert labels[0] != labels[1]

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            connected_components(random_csc((3, 4), 0.5, 1))

    def test_clusters_from_labels_largest_first(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        groups = clusters_from_labels(labels)
        assert [len(g) for g in groups] == [3, 2, 1]
        assert sorted(groups[0]) == [0, 1, 2]
