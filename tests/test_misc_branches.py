"""Final gap-filler tests for small branches across the library."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix, random_csc


class TestTableFormatting:
    def test_zero_and_negative(self):
        from repro.util import format_table

        out = format_table(["v"], [[0.0], [-12345.6], [-0.5]])
        assert "0" in out and "-12,346" in out and "-0.5" in out


class TestTripleListSortedness:
    def test_unsorted_detected(self):
        from repro.merge import TripleList

        t = TripleList((4, 4), [1, 0], [0, 0], [1.0, 2.0])
        assert not t.is_sorted()

    def test_duplicate_coordinate_not_sorted(self):
        from repro.merge import TripleList

        t = TripleList((4, 4), [0, 0], [1, 1], [1.0, 2.0])
        assert not t.is_sorted()


class TestWindowIdle:
    def test_untouched_resource_has_zero_window_idle(self):
        from repro.machine import ResourceTimeline

        assert ResourceTimeline().window_idle() == 0.0

    def test_gap_counts(self):
        from repro.machine import ResourceTimeline

        tl = ResourceTimeline()
        tl.schedule(0.0, 1.0, "a")
        tl.schedule(5.0, 1.0, "b")  # 4s gap inside the window
        assert tl.window_idle() == pytest.approx(4.0)


class TestEstimatorConfigEffects:
    def test_more_keys_cost_more_in_driver(self):
        from repro.mcl import MclOptions
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        net = planted_network(120, intra_degree=10, inter_degree=0.5,
                              seed=71)
        opts = MclOptions(select_number=12, max_iterations=4)
        times = {}
        for keys in (3, 10):
            res = hipmcl(
                net.matrix, opts,
                HipMCLConfig(nodes=4, estimator="probabilistic",
                             estimator_keys=keys),
            )
            times[keys] = res.stage_means["mem_estimation"]
        assert times[10] > times[3]

    def test_safety_factor_adds_phases(self):
        from repro.mcl import MclOptions
        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import planted_network

        net = planted_network(120, intra_degree=10, inter_degree=0.5,
                              seed=72)
        opts = MclOptions(select_number=12, max_iterations=3)
        phases = {}
        for safety in (1.0, 4.0):
            res = hipmcl(
                net.matrix, opts,
                HipMCLConfig(
                    nodes=4, estimator="probabilistic",
                    estimator_safety=safety,
                    memory_budget_bytes=48 * 1024,
                ),
            )
            phases[safety] = max(h.phases for h in res.history)
        assert phases[4.0] >= phases[1.0]


class TestMatioPrecision:
    def test_extreme_values_roundtrip(self, tmp_path):
        from repro.sparse import read_matrix_market, write_matrix_market

        mat = CSCMatrix.from_dense([[1e-12, 0.0], [0.0, 9.87654321e11]])
        path = tmp_path / "x.mtx"
        write_matrix_market(mat, path)
        back = read_matrix_market(path)
        assert np.allclose(back.to_dense(), mat.to_dense(), rtol=1e-12)


class TestPlantedKnobs:
    def test_weight_separation_controls_medians(self):
        from repro.nets import planted_network

        tight = planted_network(
            150, intra_degree=10, inter_degree=3, seed=73,
            intra_weight_mu=2.0, inter_weight_mu=-2.0,
        )
        loose = planted_network(
            150, intra_degree=10, inter_degree=3, seed=73,
            intra_weight_mu=0.0, inter_weight_mu=0.0,
        )
        # With equal mus the weight distributions coincide; with split
        # mus the overall spread is wider.
        assert tight.matrix.data.max() > loose.matrix.data.max()

    def test_zero_inter_degree_keeps_clusters_disconnected(self):
        from repro.mcl import component_clustering
        from repro.nets import planted_network

        net = planted_network(
            100, intra_degree=12, inter_degree=0.0, seed=74,
            min_cluster=10, max_cluster=25,
        )
        labels = component_clustering(net.matrix)
        # Components can only refine the planted clusters, never merge.
        for comp in set(labels.tolist()):
            members = np.flatnonzero(labels == comp)
            assert len(set(net.true_labels[members].tolist())) == 1


class TestExpansionSizeErrors:
    def test_shape_mismatch(self):
        from repro.errors import ShapeError
        from repro.spgemm import expansion_size

        with pytest.raises(ShapeError):
            expansion_size(
                random_csc((3, 4), 0.5, 1), random_csc((5, 3), 0.5, 2)
            )
