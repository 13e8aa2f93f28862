"""Tests for the attractor-based interpretation of converged matrices."""

import numpy as np
import pytest

from repro.mcl import connected_components, markov_cluster
from repro.mcl.interpret import attractors, clusters_by_attractors
from repro.sparse import CSCMatrix

from helpers import labels_equivalent


class TestAttractors:
    def test_indicator_matrix(self):
        # Columns 0,1 flow to vertex 0; column 2 to itself.
        mat = CSCMatrix.from_dense(
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert attractors(mat).tolist() == [0, 2]

    def test_no_diagonal_no_attractors(self):
        mat = CSCMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        assert len(attractors(mat)) == 0

    def test_square_required(self):
        from repro.sparse import random_csc

        with pytest.raises(ValueError):
            attractors(random_csc((2, 3), 0.5, 1))


class TestInterpretation:
    def test_simple_limit_matrix(self):
        mat = CSCMatrix.from_dense(
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )
        labels = clusters_by_attractors(mat)
        assert labels[0] == labels[1] != labels[2]

    def test_matches_components_on_converged_mcl(self, tiny_network,
                                                 tiny_options):
        res = markov_cluster(
            tiny_network.matrix, tiny_options, keep_final_matrix=True
        )
        assert res.converged
        via_attractors = clusters_by_attractors(res.final_matrix)
        via_components = connected_components(res.final_matrix)
        assert labels_equivalent(via_attractors, via_components)

    def test_attractors_are_one_per_column_mass(self, tiny_network,
                                                tiny_options):
        res = markov_cluster(
            tiny_network.matrix, tiny_options, keep_final_matrix=True
        )
        att = attractors(res.final_matrix)
        # Every column's mass concentrates on attractor rows at the limit.
        final = res.final_matrix
        mass_on_attractors = np.zeros(final.ncols)
        attr_set = np.zeros(final.nrows, dtype=bool)
        attr_set[att] = True
        from repro.sparse import _compressed as _c

        cols = _c.expand_major(final.indptr, final.ncols)
        np.add.at(
            mass_on_attractors, cols[attr_set[final.indices]],
            final.data[attr_set[final.indices]],
        )
        sums = final.column_sums()
        populated = sums > 0
        assert np.all(mass_on_attractors[populated] > 0.99 * sums[populated])

    def test_overlapping_systems_merge(self):
        # Two attractors (0 and 2) both attract column 1 → one cluster.
        mat = CSCMatrix.from_dense(
            [[0.6, 0.5, 0.0], [0.0, 0.0, 0.0], [0.4, 0.5, 1.0]]
        )
        labels = clusters_by_attractors(mat)
        assert labels[0] == labels[1] == labels[2]
