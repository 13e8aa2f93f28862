"""Acceptance tests of the multicore layer: ``workers=N`` == ``workers=1``.

The thread pool's contract is the same one the numeric kernels and the
resilience layer pin: parallelism relocates computation across threads
without reordering any reduction, so a run under any worker
count reproduces the serial run bit-for-bit — labels, simulated clocks,
per-iteration records, kernel selections, fault recovery, checkpoints.
"""

import dataclasses

import numpy as np
import pytest

import repro.parallel as parallel
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.resilience import FaultPlan, divergence
from repro.sparse import random_csc
from repro.spgemm.esc import spgemm_esc
from repro.spgemm.hashspgemm import spgemm_hash

from helpers import assert_same_csc


@pytest.fixture(scope="module")
def net(tiny_network):
    return tiny_network.matrix


@pytest.fixture(scope="module")
def opts(tiny_options):
    return tiny_options


def assert_identical_runs(par, ser):
    assert np.array_equal(par.labels, ser.labels)
    assert par.elapsed_seconds == ser.elapsed_seconds
    assert par.kernel_selections == ser.kernel_selections
    assert par.stage_means == ser.stage_means
    assert len(par.history) == len(ser.history)
    for hp, hs in zip(par.history, ser.history):
        for field in dataclasses.fields(hp):
            vp, vs = getattr(hp, field.name), getattr(hs, field.name)
            assert vp == vs, f"history field {field.name}: {vp} != {vs}"
    assert divergence(ser, par) == []


# ---------------------------------------------------------------------------
# End-to-end bit-identity across worker counts
# ---------------------------------------------------------------------------


class TestPipelineBitIdentity:
    @pytest.mark.parametrize("factory", ["optimized", "original"],
                             ids=["pipelined", "classic"])
    def test_both_algorithms(self, net, opts, factory):
        cfg = getattr(HipMCLConfig, factory)(nodes=4)
        ser = hipmcl(net, opts, cfg, workers=1)
        par = hipmcl(net, opts, cfg, workers=4)
        assert_identical_runs(par, ser)

    def test_phased_execution(self, net, opts):
        # A tight budget forces phases > 1, exercising the per-phase
        # slab batches and the fused parallel prune.
        cfg = HipMCLConfig(nodes=4, memory_budget_bytes=96 * 1024)
        ser = hipmcl(net, opts, cfg, workers=1)
        par = hipmcl(net, opts, cfg, workers=4)
        assert max(h.phases for h in ser.history) > 1
        assert_identical_runs(par, ser)

    def test_fault_injected_run(self, net, opts):
        cfg = HipMCLConfig(nodes=4)
        plan = FaultPlan.chaos(0)
        ser = hipmcl(net, opts, cfg, faults=plan, workers=1)
        par = hipmcl(net, opts, cfg, faults=plan, workers=4)
        assert sum(par.faults_injected.values()) > 0
        assert par.faults_injected == ser.faults_injected
        assert_identical_runs(par, ser)

    def test_checkpoint_resume_across_worker_counts(self, net, opts,
                                                    tmp_path):
        # A checkpoint written by a parallel run resumes serially (and
        # vice versa) to the identical result: the executor leaves no
        # trace in the persisted state.
        from repro.resilience import latest_checkpoint

        cfg = HipMCLConfig(nodes=4)
        ser = hipmcl(net, opts, cfg, workers=1)
        full = hipmcl(net, opts, cfg, workers=4, checkpoint_dir=tmp_path)
        assert full.checkpoints_written > 0
        resumed = hipmcl(net, opts, cfg, workers=1,
                         resume_from=latest_checkpoint(tmp_path))
        assert resumed.resumed_from_iteration > 0
        assert_identical_runs(full, ser)
        assert np.array_equal(resumed.labels, ser.labels)
        # Resume re-sums the simulated makespan from the persisted offset,
        # so compare through the repo's resume-equivalence check (exact
        # per-iteration trajectory) rather than the one float total.
        assert divergence(ser, resumed) == []


# ---------------------------------------------------------------------------
# The kernels never consult the executor
# ---------------------------------------------------------------------------


def test_kernels_are_pure_functions_of_their_operands(monkeypatch):
    # Fan-out happens between stage products, never inside one: with a
    # pool requested and the executor lookup booby-trapped, the local
    # multiply and the hash kernel still run, inline and unchanged.
    a = random_csc((200, 200), 0.1, seed=8)
    b = random_csc((200, 200), 0.1, seed=9)
    ref_esc, ref_hash = spgemm_esc(a, b), spgemm_hash(a, b)

    def trap(*args, **kwargs):
        raise AssertionError("a kernel asked for the executor")

    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(parallel, "get_executor", trap)
    assert_same_csc(spgemm_esc(a, b), ref_esc)
    assert_same_csc(spgemm_hash(a, b), ref_hash)
