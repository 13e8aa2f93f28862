"""Tests for the machine model: rates, timelines, calibrated orderings."""

import pytest

from repro.machine import SUMMIT_LIKE, RankClock, ResourceTimeline
from repro.spgemm import KernelKind


class TestSpecBasics:
    def test_defaults_are_summit_shaped(self):
        assert SUMMIT_LIKE.cores_per_node == 40
        assert SUMMIT_LIKE.gpus_per_node == 6
        assert SUMMIT_LIKE.gpu_memory_bytes == 16 * 2**30

    def test_thread_efficiency_monotone(self):
        e1 = SUMMIT_LIKE.thread_efficiency(1)
        e40 = SUMMIT_LIKE.thread_efficiency(40)
        assert e1 == 1.0 and 0 < e40 < 1.0

    def test_thread_efficiency_rejects_zero(self):
        with pytest.raises(ValueError):
            SUMMIT_LIKE.thread_efficiency(0)

    def test_with_overrides(self):
        spec = SUMMIT_LIKE.with_overrides(cores_per_node=8)
        assert spec.cores_per_node == 8
        assert SUMMIT_LIKE.cores_per_node == 40  # frozen original


class TestCalibratedOrderings:
    """The paper-derived orderings the constants must encode."""

    def test_nsparse_fastest_at_large_cf(self):
        cf = 40.0
        rates = {
            k: SUMMIT_LIKE.gpu_spgemm_rate(k, cf)
            for k in (
                KernelKind.GPU_NSPARSE,
                KernelKind.GPU_BHSPARSE,
                KernelKind.GPU_RMERGE2,
            )
        }
        assert (
            rates[KernelKind.GPU_NSPARSE]
            > rates[KernelKind.GPU_BHSPARSE]
            > rates[KernelKind.GPU_RMERGE2]
        )

    def test_rmerge2_wins_at_small_cf(self):
        assert SUMMIT_LIKE.gpu_spgemm_rate(
            KernelKind.GPU_RMERGE2, 1.2
        ) > SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.GPU_NSPARSE, 1.2)

    def test_crossover_near_cf_two(self):
        lo = SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.GPU_NSPARSE, 1.5)
        lo_r = SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.GPU_RMERGE2, 1.5)
        hi = SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.GPU_NSPARSE, 4.0)
        hi_r = SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.GPU_RMERGE2, 4.0)
        assert lo_r > lo and hi > hi_r

    def test_gpu_node_beats_cpu_node_at_high_cf(self):
        """nsparse ≈ 3.3× cpu-hash at large cf (Fig. 4)."""
        gpu_node = SUMMIT_LIKE.gpus_per_node * SUMMIT_LIKE.gpu_spgemm_rate(
            KernelKind.GPU_NSPARSE, 40.0
        )
        cpu_node = SUMMIT_LIKE.cpu_rate(
            SUMMIT_LIKE.cpu_hash_ops_per_core, SUMMIT_LIKE.cores_per_node
        )
        assert 2.5 <= gpu_node / cpu_node <= 4.5

    def test_heap_slower_than_hash_per_op(self):
        assert (
            SUMMIT_LIKE.cpu_heap_ops_per_core
            < SUMMIT_LIKE.cpu_hash_ops_per_core
        )

    def test_gpu_time_includes_launch_overhead(self):
        t = SUMMIT_LIKE.gpu_spgemm_time(KernelKind.GPU_NSPARSE, 0, 1.0, 0)
        assert t == SUMMIT_LIKE.gpu_launch_overhead_s

    def test_cpu_time_rejects_gpu_kind(self):
        with pytest.raises(ValueError):
            SUMMIT_LIKE.cpu_spgemm_time(KernelKind.GPU_NSPARSE, 100, 4)

    def test_gpu_rate_rejects_cpu_kind(self):
        with pytest.raises(ValueError):
            SUMMIT_LIKE.gpu_spgemm_rate(KernelKind.CPU_HASH, 2.0)


class TestCollectiveModels:
    def test_bcast_zero_for_singleton(self):
        assert SUMMIT_LIKE.bcast_time(1000, 1) == 0.0

    def test_bcast_log_scaling(self):
        t2 = SUMMIT_LIKE.bcast_time(0, 2)
        t16 = SUMMIT_LIKE.bcast_time(0, 16)
        assert t16 == pytest.approx(4 * t2)

    def test_allreduce_carries_double_volume(self):
        b = SUMMIT_LIKE.bcast_time(10**6, 8)
        r = SUMMIT_LIKE.allreduce_time(10**6, 8)
        assert r > b

    def test_alltoall_linear_in_group(self):
        t4 = SUMMIT_LIKE.alltoall_time(1000, 4)
        t8 = SUMMIT_LIKE.alltoall_time(1000, 8)
        assert t8 == pytest.approx(t4 * 7 / 3)

    def test_prune_numa_penalty(self):
        slow = SUMMIT_LIKE.prune_time(10**6, 40, threaded_node=True)
        fast = SUMMIT_LIKE.prune_time(10**6, 40, threaded_node=False)
        assert slow > fast


class TestResourceTimeline:
    def test_schedule_advances_cursor(self):
        tl = ResourceTimeline()
        end = tl.schedule(0.0, 2.0, "work")
        assert end == 2.0 and tl.busy["work"] == 2.0 and tl.idle == 0.0

    def test_waiting_counts_as_idle(self):
        tl = ResourceTimeline()
        tl.schedule(5.0, 1.0, "late")
        assert tl.idle == 5.0 and tl.free_at == 6.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline().schedule(0.0, -1.0, "bad")

    def test_busy_total(self):
        tl = ResourceTimeline()
        tl.schedule(0, 1.0, "a")
        tl.schedule(0, 2.0, "b")
        assert tl.busy_total() == 3.0


class TestRankClock:
    def test_now_is_max_of_resources(self):
        c = RankClock()
        c.cpu.schedule(0, 3.0, "x")
        c.gpu.schedule(0, 5.0, "y")
        assert c.now == 5.0

    def test_barrier_records_idle(self):
        c = RankClock()
        c.cpu.schedule(0, 1.0, "x")
        c.barrier_to(4.0)
        assert c.cpu.free_at == 4.0 and c.cpu.idle == 3.0

    def test_stage_report_merges_accounts(self):
        c = RankClock()
        c.cpu.schedule(0, 1.0, "spgemm")
        c.gpu.schedule(0, 2.0, "spgemm")
        assert c.stage_report()["spgemm"] == 3.0
