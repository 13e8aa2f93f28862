"""Tests for the extension features: CPU-only preset, GPU estimation
(future work), host-memory budget accounting."""

import pytest

from repro.mcl import MclOptions, markov_cluster
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.nets import planted_network

from helpers import labels_equivalent


@pytest.fixture(scope="module")
def net_and_opts():
    net = planted_network(
        200, intra_degree=15.0, inter_degree=1.0,
        min_cluster=6, max_cluster=30, seed=21,
    )
    return net, MclOptions(select_number=20)


class TestCpuOnlyPreset:
    def test_preset_shape(self):
        cfg = HipMCLConfig.optimized_cpu(nodes=16)
        assert cfg.kernel == "hash" and not cfg.use_gpu
        assert cfg.merge == "binary"

    def test_matches_reference(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized_cpu(nodes=16))
        assert labels_equivalent(res.labels, ref.labels)
        assert not any(
            k in res.kernel_selections
            for k in ("nsparse", "bhsparse", "rmerge2")
        )

    def test_faster_than_original_slower_than_gpu(self):
        """§VI's point: the hash kernel alone already helps on CPU-only
        systems, but GPUs buy more.  The GPU advantage needs blocks big
        enough to saturate the device, so this runs on a catalog net.
        """
        from repro.nets import entry, load

        net = load("archaea-xs", seed=0)
        opts = entry("archaea-xs").options()
        times = {}
        for label, cfg in (
            ("original", HipMCLConfig.original(nodes=16)),
            ("cpu", HipMCLConfig.optimized_cpu(nodes=16)),
            ("gpu", HipMCLConfig.optimized(nodes=16)),
        ):
            times[label] = hipmcl(net.matrix, opts, cfg).elapsed_seconds
        assert times["gpu"] < times["cpu"] < times["original"]


class TestGpuEstimation:
    def test_preset_validates(self):
        cfg = HipMCLConfig.future_gpu_estimation(nodes=16)
        assert cfg.estimator == "probabilistic-gpu"

    def test_matches_reference(self, net_and_opts):
        net, opts = net_and_opts
        ref = markov_cluster(net.matrix, opts)
        res = hipmcl(
            net.matrix, opts, HipMCLConfig.future_gpu_estimation(nodes=16)
        )
        assert labels_equivalent(res.labels, ref.labels)
        assert all(
            h.estimator_used == "probabilistic-gpu" for h in res.history
        )

    def test_reduces_estimation_stage(self):
        """The stated goal of the future work: shrink the estimation
        bottleneck by running it on the device.  Needs a network whose
        estimation *compute* is visible next to the estimation traffic.
        """
        from repro.nets import entry, load

        net = load("archaea-xs", seed=0)
        opts = entry("archaea-xs").options()
        base = hipmcl(
            net.matrix, opts,
            HipMCLConfig(nodes=16, estimator="probabilistic"),
        )
        future = hipmcl(
            net.matrix, opts, HipMCLConfig.future_gpu_estimation(nodes=16)
        )
        # CPU-side estimation busy time moves to the device and overlaps;
        # what remains in the bucket is the (unavoidable) traffic.
        assert (
            future.stage_means["mem_estimation"]
            < base.stage_means["mem_estimation"]
        )


class TestMemoryBudgetAccounting:
    def test_peak_reported(self, net_and_opts):
        net, opts = net_and_opts
        res = hipmcl(net.matrix, opts, HipMCLConfig.optimized(nodes=16))
        assert res.peak_rank_resident_bytes > 0

    def test_generous_budget_no_violations(self, net_and_opts):
        net, opts = net_and_opts
        res = hipmcl(
            net.matrix, opts,
            HipMCLConfig(
                nodes=16, estimator="symbolic",
                memory_budget_bytes=1 << 30,
            ),
        )
        assert res.budget_violations == 0
        assert res.peak_rank_resident_bytes <= 1 << 30

    def test_impossible_budget_detected(self, net_and_opts):
        """With a budget below what even max_phases can achieve, the
        accounting must flag the §VII-D out-of-memory hazard."""
        net, opts = net_and_opts
        res = hipmcl(
            net.matrix, opts,
            HipMCLConfig(
                nodes=4, estimator="symbolic", memory_budget_bytes=512,
            ),
        )
        assert res.budget_violations > 0

    def test_more_phases_lower_peak(self, net_and_opts):
        net, opts = net_and_opts
        peaks = {}
        for budget in (1 << 30, 16 * 1024):
            res = hipmcl(
                net.matrix, opts,
                HipMCLConfig(
                    nodes=4, estimator="symbolic",
                    memory_budget_bytes=budget,
                ),
            )
            peaks[budget] = res.peak_rank_resident_bytes
        assert peaks[16 * 1024] < peaks[1 << 30]
