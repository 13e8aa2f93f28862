"""Unit tests for the resilience layer: faults, policies, validators,
checkpoints, and the per-layer recovery hooks."""

import numpy as np
import pytest

from repro.errors import CheckpointError, InvariantViolation
from repro.machine.spec import SUMMIT_LIKE
from repro.mpi.comm import RESILIENCE_ACCOUNT, VirtualComm
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    InjectedCommFailure,
    InjectedEstimationError,
    InvariantChecker,
    InvariantWarning,
    MclCheckpoint,
    ResiliencePolicy,
    RetryPolicy,
    as_injector,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sparse import CSCMatrix, random_csc
from repro.spgemm.estimator import estimate_nnz
from repro.spgemm.hybrid import KernelKind, degrade_kernel


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="comm_failure_rate"):
            FaultPlan(comm_failure_rate=1.5)
        with pytest.raises(ValueError, match="must not exceed 1"):
            FaultPlan(estimator_miss_rate=0.7, estimator_underestimate_rate=0.7)
        with pytest.raises(ValueError, match="estimator_deflation"):
            FaultPlan(estimator_deflation=0.0)
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan.chaos(0, intensity=2.0)

    def test_chaos_preset_covers_every_site(self):
        plan = FaultPlan.chaos(3, intensity=0.4)
        assert plan.seed == 3
        assert plan.comm_failure_rate == 0.4
        assert plan.straggler_rate == 0.4
        assert plan.gpu_alloc_rate == 0.4
        assert plan.gpu_launch_rate == 0.4
        assert plan.cpu_kernel_rate == 0.4
        assert plan.estimator_miss_rate == 0.4
        assert plan.estimator_underestimate_rate == 0.4

    def test_as_injector_normalizes(self):
        plan = FaultPlan(seed=1)
        assert as_injector(None) is None
        inj = as_injector(plan)
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        with pytest.raises(TypeError, match="FaultPlan"):
            as_injector(42)


#: One offloaded multiply on two devices: the bytes each holds once A,
#: then B, then C are on it.
STAGED = [(1024, 2048, 4096), (1024, 1536, 2048)]


class TestFaultInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.chaos(7, intensity=0.5)
        a, b = plan.injector(), plan.injector()
        seq_a, seq_b = (
            [
                (inj.collective_failures(), inj.straggler(8),
                 inj.gpu_attempt(STAGED, 10**9),
                 inj.faults("cpu_kernel", 2).tolist(),
                 inj.faults("merge", 1).tolist(), inj.estimator_fault())
                for _ in range(50)
            ]
            for inj in (a, b)
        )
        assert seq_a == seq_b
        assert a.counts() == b.counts()
        assert a.total_injected == sum(a.counts().values())

    def test_sites_draw_from_independent_streams(self):
        plan = FaultPlan.chaos(11, intensity=0.5)
        solo = plan.injector()
        solo_comm = [solo.collective_failures() for _ in range(30)]
        mixed = plan.injector()
        mixed_comm = []
        for _ in range(30):
            # Interleave queries at every other site; the comm stream must
            # not notice.
            mixed.gpu_attempt(STAGED, 10**9)
            mixed.estimator_fault()
            mixed.straggler(4)
            mixed_comm.append(mixed.collective_failures())
            mixed.faults("cpu_kernel", 3)
            mixed.faults("merge", 2)
        assert solo_comm == mixed_comm

    def test_vector_draw_equals_scalar_draws(self):
        from repro.resilience import FAULT_SITES
        from repro.util.rng import spawn_streams

        plan = FaultPlan.chaos(5, intensity=0.5)
        inj = plan.injector()
        streams = dict(
            zip(FAULT_SITES, spawn_streams(plan.seed, len(FAULT_SITES)))
        )
        for site, rate in (("cpu_kernel", plan.cpu_kernel_rate),
                           ("merge", plan.merge_overrun_rate)):
            hits = inj.faults(site, 40).tolist()
            assert hits == [streams[site].random() < rate for _ in range(40)]
            assert 0 < sum(hits) < 40
            assert inj.counts()[site] == sum(hits)

    def test_zero_rate_plan_injects_nothing(self):
        inj = FaultPlan(seed=5).injector()
        for _ in range(20):
            assert inj.collective_failures() == 0
            assert inj.straggler(4) is None
            assert inj.gpu_attempt(STAGED, 10**9) == "ok"
            assert not inj.faults("cpu_kernel", 3).any()
            assert not inj.faults("merge", 3).any()
            assert inj.estimator_fault() is None
        assert inj.total_injected == 0
        assert inj.counts() == {}


# ---------------------------------------------------------------------------
# Retry / policy dataclasses
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_retry_backoff_is_exponential(self):
        retry = RetryPolicy(base_delay_s=1e-3, backoff=2.0)
        assert retry.delay(0) == pytest.approx(1e-3)
        assert retry.delay(3) == pytest.approx(8e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="validate"):
            ResiliencePolicy(validate="loud")
        with pytest.raises(ValueError, match="max_phase_splits"):
            ResiliencePolicy(max_phase_splits=-2)


# ---------------------------------------------------------------------------
# Communicator injection: retries and stragglers charge simulated time
# ---------------------------------------------------------------------------


class TestCommInjection:
    def test_retries_charged_to_all_ranks(self):
        plan = FaultPlan(seed=0, comm_failure_rate=1.0, comm_max_failures=1)
        comm = VirtualComm(4, SUMMIT_LIKE, injector=plan.injector())
        clean = VirtualComm(4, SUMMIT_LIKE)
        comm.broadcast([0, 1, 2, 3], 4096, "summa_bcast")
        clean.broadcast([0, 1, 2, 3], 4096, "summa_bcast")
        assert comm.traffic.collective_retries == 1
        assert comm.traffic.retry_seconds > 0
        assert comm.elapsed() > clean.elapsed()
        for clock in comm.clocks:
            assert clock.cpu.busy[RESILIENCE_ACCOUNT] == pytest.approx(
                comm.traffic.retry_seconds
            )
        # The successful attempt is still charged under its own account.
        assert comm.account_means()["summa_bcast"] == pytest.approx(
            clean.account_means()["summa_bcast"]
        )

    def test_straggler_delays_one_member(self):
        plan = FaultPlan(seed=0, straggler_rate=1.0, straggler_delay_s=1e-3)
        comm = VirtualComm(4, SUMMIT_LIKE, injector=plan.injector())
        comm.allreduce([0, 1, 2, 3], 64, "other_comm")
        assert comm.traffic.straggler_events == 1
        delayed = [
            c for c in comm.clocks if c.cpu.busy.get(RESILIENCE_ACCOUNT, 0) > 0
        ]
        assert len(delayed) == 1

    def test_exhausted_retries_raise_injected_failure(self):
        plan = FaultPlan(seed=0, comm_failure_rate=1.0, comm_max_failures=8)
        comm = VirtualComm(
            2, SUMMIT_LIKE, injector=plan.injector(),
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(InjectedCommFailure):
            comm.broadcast([0, 1], 1024, "summa_bcast")

    def test_no_injector_behaves_exactly_as_before(self):
        a = VirtualComm(4, SUMMIT_LIKE)
        b = VirtualComm(4, SUMMIT_LIKE, injector=None)
        for comm in (a, b):
            comm.broadcast([0, 1, 2, 3], 4096, "summa_bcast")
            comm.allreduce([0, 1], 64, "other_comm")
        assert a.elapsed() == b.elapsed()
        assert a.traffic.collective_retries == 0


# ---------------------------------------------------------------------------
# Device injection and the kernel degradation ladder
# ---------------------------------------------------------------------------


class TestDeviceInjection:
    def test_injected_alloc_fault_reserves_nothing(self):
        # The first allocation faults: the attempt stops before anything
        # else is staged or launched.
        inj = FaultPlan(seed=0, gpu_alloc_rate=1.0).injector()
        assert inj.gpu_attempt(STAGED, 10**9) == "injected"
        assert inj.counts() == {"gpu_alloc": 1}

    def test_injected_launch_fault_not_counted(self):
        # The first device's launch faults: the attempt stops there.
        inj = FaultPlan(seed=0, gpu_launch_rate=1.0).injector()
        assert inj.gpu_attempt(STAGED, 10**9) == "injected"
        assert inj.counts() == {"gpu_launch": 1}

    def test_genuine_oom_is_not_flagged_injected(self):
        inj = FaultPlan(seed=0).injector()
        assert inj.gpu_attempt(STAGED, 2000) == "oom"
        assert inj.counts() == {}


class TestDegradationLadder:
    def test_ladder_bottoms_out_at_heap(self):
        for gpu_kind in (
            KernelKind.GPU_NSPARSE,
            KernelKind.GPU_RMERGE2,
            KernelKind.GPU_BHSPARSE,
        ):
            assert degrade_kernel(gpu_kind) is KernelKind.CPU_HASH
        assert degrade_kernel(KernelKind.CPU_HASH) is KernelKind.CPU_HEAP
        assert degrade_kernel(KernelKind.CPU_HEAP) is None


# ---------------------------------------------------------------------------
# Estimator injection
# ---------------------------------------------------------------------------


class TestEstimatorInjection:
    def test_bound_miss_raises_injected_estimation_error(self):
        a = random_csc((60, 60), 0.1, seed=6)
        plan = FaultPlan(seed=0, estimator_miss_rate=1.0)
        with pytest.raises(InjectedEstimationError):
            estimate_nnz(a, a, keys=5, seed=1, injector=plan.injector())

    def test_underestimate_deflates_by_plan_factor(self):
        a = random_csc((60, 60), 0.1, seed=6)
        clean = estimate_nnz(a, a, keys=5, seed=1)
        plan = FaultPlan(
            seed=0, estimator_underestimate_rate=1.0, estimator_deflation=0.25
        )
        inj = plan.injector()
        deflated = estimate_nnz(a, a, keys=5, seed=1, injector=inj)
        assert deflated.total == pytest.approx(clean.total * 0.25)
        assert inj.counts() == {"estimator_underestimate": 1}

    def test_no_fault_estimate_is_bit_identical(self):
        a = random_csc((60, 60), 0.1, seed=6)
        clean = estimate_nnz(a, a, keys=5, seed=1)
        inj = FaultPlan(seed=0).injector()
        armed = estimate_nnz(a, a, keys=5, seed=1, injector=inj)
        assert np.array_equal(clean.per_column, armed.per_column)
        assert clean.total == armed.total


# ---------------------------------------------------------------------------
# Invariant validators
# ---------------------------------------------------------------------------


def _stochastic_matrix() -> CSCMatrix:
    return CSCMatrix.from_dense([[0.5, 0.0], [0.5, 1.0]])


class TestInvariantChecker:
    def test_clean_iterate_passes_all_checks(self):
        checker = InvariantChecker(mode="strict")
        checker.after_iteration(_stochastic_matrix(), [0.5, 0.1], 2)
        assert checker.violations == []

    def test_warn_mode_warns_and_records(self):
        checker = InvariantChecker(mode="warn")
        bad = CSCMatrix.from_dense([[0.5, 0.0], [0.2, 1.0]])
        with pytest.warns(InvariantWarning, match="column stochastic"):
            checker.check_column_stochastic(bad, "iteration 3")
        assert len(checker.violations) == 1
        assert "iteration 3" in checker.violations[0]

    def test_strict_mode_raises(self):
        checker = InvariantChecker(mode="strict")
        bad = CSCMatrix.from_dense([[0.5, 0.0], [0.2, 1.0]])
        with pytest.raises(InvariantViolation, match="column stochastic"):
            checker.check_column_stochastic(bad)
        assert checker.violations  # recorded even when raising

    def test_off_mode_is_silent(self):
        checker = InvariantChecker(mode="off")
        bad = CSCMatrix.from_dense([[0.5, 0.0], [0.2, 1.0]])
        checker.check_column_stochastic(bad)
        checker.check_format(bad)
        assert checker.violations == []

    def test_format_check_catches_nonfinite_values(self):
        mat = _stochastic_matrix()
        data = mat.data.copy()
        data[0] = np.nan
        mat = CSCMatrix(mat.shape, mat.indptr, mat.indices, data, check=False)
        checker = InvariantChecker(mode="strict")
        with pytest.raises(InvariantViolation, match="non-finite"):
            checker.check_format(mat, "iteration 1")

    def test_format_check_catches_broken_indptr(self):
        mat = _stochastic_matrix()
        indptr = mat.indptr.copy()
        indptr[1] = 99  # beyond nnz: structurally invalid
        mat = CSCMatrix(mat.shape, indptr, mat.indices, mat.data, check=False)
        checker = InvariantChecker(mode="strict")
        with pytest.raises(InvariantViolation, match="CSC format"):
            checker.check_format(mat)

    def test_chaos_trend_fires_only_after_grace(self):
        checker = InvariantChecker(mode="strict", chaos_slack=2.0,
                                   chaos_grace_iterations=3)
        checker.check_chaos_trend([1.0, 5.0])  # within grace: allowed
        with pytest.raises(InvariantViolation, match="chaos rose"):
            checker.check_chaos_trend([1.0, 0.5, 0.4, 0.3, 0.9])

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            InvariantChecker(mode="shout")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _dummy_checkpoint(iteration: int = 3) -> MclCheckpoint:
    return MclCheckpoint(
        iteration=iteration,
        work=random_csc((24, 24), 0.2, seed=8),
        history=[],
        prev_cf=2.5,
        elapsed_seconds=0.125,
        counters={"gpu_fallbacks": 2, "kernel_selections": {"cpu-hash": 4}},
        fingerprint="f" * 64,
    )


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        ckpt = _dummy_checkpoint()
        path = save_checkpoint(checkpoint_path(tmp_path, 3), ckpt)
        loaded = load_checkpoint(path, "f" * 64)
        assert loaded.iteration == 3
        assert loaded.prev_cf == 2.5
        assert loaded.elapsed_seconds == 0.125
        assert loaded.counters == ckpt.counters
        assert np.array_equal(loaded.work.indptr, ckpt.work.indptr)
        assert np.array_equal(loaded.work.indices, ckpt.work.indices)
        assert np.array_equal(loaded.work.data, ckpt.work.data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.ckpt.npz")

    def test_truncated_file_rejected(self, tmp_path):
        path = save_checkpoint(
            checkpoint_path(tmp_path, 1), _dummy_checkpoint(1)
        )
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError, match="checksum|unreadable"):
            load_checkpoint(path)

    def test_tampered_arrays_fail_the_checksum(self, tmp_path):
        path = save_checkpoint(
            checkpoint_path(tmp_path, 1), _dummy_checkpoint(1)
        )
        with np.load(path, allow_pickle=False) as npz:
            contents = {name: npz[name] for name in npz.files}
        contents["data"] = contents["data"].copy()
        contents["data"][0] += 1.0  # valid archive, silently changed values
        with open(path, "wb") as fh:
            np.savez(fh, **contents)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = save_checkpoint(
            checkpoint_path(tmp_path, 1), _dummy_checkpoint(1)
        )
        with pytest.raises(CheckpointError, match="different\\s+.*config"):
            load_checkpoint(path, "0" * 64)

    def test_latest_checkpoint_picks_highest_iteration(self, tmp_path):
        assert latest_checkpoint(tmp_path / "absent") is None
        assert latest_checkpoint(tmp_path) is None
        for it in (1, 12, 7):
            save_checkpoint(
                checkpoint_path(tmp_path, it), _dummy_checkpoint(it)
            )
        best = latest_checkpoint(tmp_path)
        assert best is not None and best.name == "mcl-iter-0012.ckpt.npz"


#: A checkpoint's ``counters``: today's keys and value types.  A run's
#: counters are read back by name on resume, so renaming or retyping one
#: must fail here rather than in a user's resume.
CHECKPOINT_COUNTERS = {
    "kernel_selections": dict,
    "gpu_fallbacks": int,
    "expansion_seconds": float,
    "expansion_cpu_idle": float,
    "expansion_gpu_idle": float,
    "peak_rank_resident_bytes": int,
    "budget_violations": int,
    "estimator_fallbacks": int,
    "phase_split_retries": int,
    "kernel_demotions": int,
    "merge_demotions": int,
    "transport_selections": dict,
    "transport_demotions": int,
    "bcast_overlap_seconds": float,
    "prune_bcast_overlap_seconds": float,
}


class TestCheckpointCounters:
    @pytest.fixture(scope="class")
    def checkpointed(self, tmp_path_factory):
        """A static 3-D run stopped after three iterations, with a
        checkpoint at each (the last one included: it did not
        converge)."""
        import dataclasses

        from repro.mcl.hipmcl import HipMCLConfig, hipmcl
        from repro.nets import entry, load

        directory = tmp_path_factory.mktemp("ckpt")
        options = dataclasses.replace(
            entry("archaea-xs").options(), max_iterations=3
        )
        config = HipMCLConfig.optimized(
            nodes=16, schedule="static", grid="3d",
            memory_budget_bytes=2**19,
        )
        matrix = load("archaea-xs", seed=0).matrix
        res = hipmcl(matrix, options, config, checkpoint_dir=directory)
        assert not res.converged and res.checkpoints_written == 3
        return matrix, options, config, checkpoint_path(directory, 3)

    def test_counters_keep_their_keys_and_types(self, checkpointed):
        *_run, path = checkpointed
        counters = load_checkpoint(path).counters
        assert {k: type(v) for k, v in counters.items()} == (
            CHECKPOINT_COUNTERS
        )
        for name in ("kernel_selections", "transport_selections"):
            assert counters[name]
            assert all(
                type(k) is str and type(v) is int
                for k, v in counters[name].items()
            )

    def test_resume_from_partial_counters_starts_the_rest_at_zero(
        self, checkpointed, tmp_path
    ):
        from repro.mcl.hipmcl import hipmcl

        matrix, options, config, path = checkpointed
        full = load_checkpoint(path)
        partial = save_checkpoint(
            checkpoint_path(tmp_path, full.iteration),
            MclCheckpoint(
                iteration=full.iteration,
                work=full.work,
                history=full.history,
                prev_cf=full.prev_cf,
                elapsed_seconds=full.elapsed_seconds,
                counters={
                    "gpu_fallbacks": 2,
                    "kernel_selections": {"cpu-hash": 4},
                },
                fingerprint=full.fingerprint,
            ),
        )
        # The checkpoint is the last iteration: the resumed run only
        # restores its state and reports it.
        res = hipmcl(matrix, options, config, resume_from=partial)
        assert res.resumed_from_iteration == res.iterations == 3
        assert res.gpu_fallbacks == 2
        assert res.kernel_selections == {"cpu-hash": 4}
        assert res.transport_selections == {}
        for name in (
            "expansion_seconds", "expansion_cpu_idle_seconds",
            "expansion_gpu_idle_seconds", "peak_rank_resident_bytes",
            "budget_violations", "estimator_fallbacks",
            "phase_split_retries", "kernel_demotions", "merge_demotions",
            "transport_demotions", "bcast_overlap_seconds",
            "prune_bcast_overlap_seconds",
        ):
            assert getattr(res, name) == 0, name
