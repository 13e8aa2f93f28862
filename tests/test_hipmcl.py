"""Tests for the distributed HipMCL driver."""

import hashlib

import numpy as np
import pytest

from repro.errors import GridError
from repro.mcl import MclOptions, markov_cluster
from repro.mcl.hipmcl import HipMCLConfig, HipMCLResult, hipmcl

from helpers import labels_equivalent


@pytest.fixture(scope="module")
def net_and_opts():
    from repro.nets import planted_network

    net = planted_network(
        220, intra_degree=16.0, inter_degree=1.0,
        min_cluster=6, max_cluster=28, seed=9,
    )
    return net, MclOptions(select_number=22)


class TestConfig:
    def test_thread_based_process_count(self):
        cfg = HipMCLConfig(nodes=16, threaded_node=True)
        assert cfg.processes == 16
        assert cfg.threads_per_process == 40
        assert cfg.gpus_per_process == 6

    def test_process_based_process_count(self):
        cfg = HipMCLConfig(
            nodes=16, threaded_node=False, gpus_per_node=4
        )
        assert cfg.processes == 64
        # 40/4 = 10 cores, derated by the MPI-service share (spec default
        # 0.8) to 8 usable threads per slim process.
        assert cfg.threads_per_process == 8
        assert cfg.gpus_per_process == 1

    def test_non_square_rejected(self):
        with pytest.raises(GridError):
            HipMCLConfig(nodes=10)

    def test_process_based_square_requirement(self):
        with pytest.raises(GridError):
            HipMCLConfig(nodes=16, threaded_node=False, gpus_per_node=6)

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            HipMCLConfig(nodes=16, estimator="psychic")

    @pytest.mark.parametrize(
        "knob, match",
        [
            ({"kernel": "bogus"}, "unknown kernel"),
            ({"merge": "bogus"}, "unknown merge schedule"),
            ({"schedule": "bogus"}, "unknown schedule"),
            ({"schedule": "static", "pipelined": False},
             "requires pipelined=True"),
        ],
    )
    def test_multiply_knobs_rejected_at_construction(self, knob, match):
        # One validator: the multiply's own config, built at construction,
        # not at the first multiply.
        with pytest.raises(ValueError, match=match):
            HipMCLConfig(nodes=16, **knob)

    def test_original_preset(self):
        cfg = HipMCLConfig.original(nodes=16)
        assert cfg.kernel == "heap"
        assert cfg.merge == "multiway"
        assert not cfg.pipelined and not cfg.use_gpu
        assert cfg.estimator == "symbolic"

    def test_optimized_preset(self):
        cfg = HipMCLConfig.optimized(nodes=16)
        assert cfg.kernel == "hybrid" and cfg.merge == "binary"
        assert cfg.pipelined and cfg.use_gpu

    def test_optimized_no_overlap(self):
        cfg = HipMCLConfig.optimized(nodes=16, overlap=False)
        assert not cfg.pipelined and cfg.merge == "multiway"


class TestEquivalence:
    """Distributed runs return the sequential reference's clusters."""

    def test_optimized_matches_reference(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=16))
        assert res.converged
        assert res.iterations == ref.iterations
        assert labels_equivalent(res.labels, ref.labels)

    def test_original_matches_reference(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(net.matrix, opts, HipMCLConfig.original(nodes=16))
        assert labels_equivalent(res.labels, ref.labels)

    @pytest.mark.parametrize("nodes", [1, 4, 9, 25])
    def test_grid_size_invariance(self, net_and_opts, nodes):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=nodes))
        assert labels_equivalent(res.labels, ref.labels)

    def test_phased_run_matches(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        cfg = HipMCLConfig.optimized(nodes=16, memory_budget_bytes=4 * 1024)
        res = hipmcl(net.matrix, opts, cfg)
        assert max(h.phases for h in res.history) > 1  # phases exercised
        assert labels_equivalent(res.labels, ref.labels)

    def test_process_based_matches(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        cfg = HipMCLConfig(
            nodes=16, threaded_node=False, gpus_per_node=4
        )
        res = hipmcl(net.matrix, opts, cfg)
        assert labels_equivalent(res.labels, ref.labels)


class TestAccounting:
    def test_result_fields_populated(self, net_and_opts):
        net, opts = net_and_opts
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=16))
        assert isinstance(res, HipMCLResult)
        assert res.elapsed_seconds > 0
        assert res.bytes_communicated > 0
        assert res.wall_seconds > 0
        assert set(res.stage_means) == {
            "local_spgemm", "mem_estimation", "summa_bcast",
            "merge", "prune", "other",
        }

    def test_history_per_iteration(self, net_and_opts):
        net, opts = net_and_opts
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=16))
        assert len(res.history) == res.iterations
        for h in res.history:
            assert h.flops >= 0 and h.phases >= 1
            assert h.estimator_used in ("symbolic", "probabilistic")

    def test_symbolic_estimator_is_exact(self, net_and_opts):
        net, opts = net_and_opts
        cfg = HipMCLConfig(nodes=16, estimator="symbolic")
        res = hipmcl(net.matrix, opts, cfg)
        for h in res.history:
            assert h.estimation_error_pct == pytest.approx(0.0, abs=1e-9)

    #: Recorded at the commit before the sort-free symbolic pass, on a
    #: 6000-byte budget so the estimate decides real phase counts: the
    #: symbolic total feeds ``plan_phases``, so an off-by-one there moves
    #: every figure below.
    RECORDED = {
        "original": (
            HipMCLConfig.original(nodes=16, memory_budget_bytes=6000),
            "ssssssssssss",
            [7432.0, 15633.0, 4286.0, 3715.0, 3594.0, 2436.0, 1066.0,
             564.0, 392.0, 295.0, 272.0, 244.0],
            [2, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            "0x1.16807d251ed73p-8",
        ),
        "hybrid": (
            HipMCLConfig.optimized(nodes=16, memory_budget_bytes=6000,
                                   estimator_cf_threshold=4.0),
            "psppppppssss",
            [6676.6385309948055, 15633.0, 3255.6288429738543,
             3868.897281024699, 4975.532469973141, 2317.6620519818443,
             1010.1384347525216, 742.613233249284, 392.0, 295.0, 272.0,
             244.0],
            [2, 4, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1],
            "0x1.40f26f83af98cp-9",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_estimate_step_reproduces_recorded_run(self, net_and_opts, name):
        net, opts = net_and_opts
        cfg, schemes, estimated, phases, elapsed = self.RECORDED[name]
        res = hipmcl(net.matrix, opts, cfg)
        assert "".join(h.estimator_used[0] for h in res.history) == schemes
        assert [h.estimated_nnz for h in res.history] == estimated
        assert [h.phases for h in res.history] == phases
        assert res.elapsed_seconds == float.fromhex(elapsed)
        assert hashlib.sha1(
            res.labels.astype(np.int64).tobytes()
        ).hexdigest()[:16] == "57d8c8082ee7077a"

    def test_probabilistic_estimator_reasonable(self, net_and_opts):
        net, opts = net_and_opts
        cfg = HipMCLConfig(nodes=16, estimator="probabilistic",
                           estimator_keys=10)
        res = hipmcl(net.matrix, opts, cfg)
        errors = [h.estimation_error_pct for h in res.history]
        assert np.median(errors) < 60.0

    def test_hybrid_estimator_switches_to_exact_late(self, net_and_opts):
        net, opts = net_and_opts
        cfg = HipMCLConfig(nodes=16, estimator="hybrid")
        res = hipmcl(net.matrix, opts, cfg)
        schemes = [h.estimator_used for h in res.history]
        assert "probabilistic" in schemes
        assert schemes[-1] == "symbolic"  # cf → 1 at convergence

    def test_original_slower_than_optimized(self, net_and_opts):
        net, opts = net_and_opts
        orig = hipmcl(net.matrix, opts, HipMCLConfig.original(nodes=16))
        opt = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=16))
        assert orig.elapsed_seconds > opt.elapsed_seconds

    def test_as_mcl_result(self, net_and_opts):
        net, opts = net_and_opts
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=4))
        mcl_res = res.as_mcl_result()
        assert np.array_equal(mcl_res.labels, res.labels)
