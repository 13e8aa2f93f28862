"""Tests for the simulated GPU device and the §III-A multi-GPU column
split the SUMMA engine prices each offloaded local multiply with."""

import pytest

from repro.errors import DeviceMemoryError
from repro.gpu import GPUDevice, split_columns
from repro.machine import SUMMIT_LIKE
from repro.sparse import random_csc
from repro.spgemm import KernelKind, flops_per_column, spgemm_esc
from repro.summa.engine import _gpu_stage_time


class TestDevice:
    def test_allocate_and_free(self):
        dev = GPUDevice(SUMMIT_LIKE)
        dev.allocate("a", 1000)
        assert dev.allocated_bytes == 1000
        dev.free("a")
        assert dev.allocated_bytes == 0

    def test_peak_tracking(self):
        dev = GPUDevice(SUMMIT_LIKE)
        dev.allocate("a", 1000)
        dev.allocate("b", 500)
        dev.free("a")
        dev.allocate("c", 100)
        assert dev.peak_bytes == 1500

    def test_oom_raises(self):
        dev = GPUDevice(SUMMIT_LIKE, capacity_bytes=100)
        with pytest.raises(DeviceMemoryError):
            dev.allocate("big", 101)

    def test_oom_message_names_device(self):
        dev = GPUDevice(SUMMIT_LIKE, index=3, capacity_bytes=10)
        with pytest.raises(DeviceMemoryError, match="GPU 3"):
            dev.allocate("x", 11)

    def test_double_allocation_is_caller_bug(self):
        dev = GPUDevice(SUMMIT_LIKE)
        dev.allocate("a", 10)
        with pytest.raises(ValueError):
            dev.allocate("a", 10)

    def test_free_unknown_tag(self):
        with pytest.raises(ValueError):
            GPUDevice(SUMMIT_LIKE).free("ghost")

    def test_negative_allocation(self):
        with pytest.raises(ValueError):
            GPUDevice(SUMMIT_LIKE).allocate("n", -5)

    def test_fits(self):
        dev = GPUDevice(SUMMIT_LIKE, capacity_bytes=100)
        assert dev.fits(100) and not dev.fits(101)

    def test_free_all(self):
        dev = GPUDevice(SUMMIT_LIKE)
        dev.allocate("a", 10)
        dev.allocate("b", 20)
        dev.free_all()
        assert dev.allocated_bytes == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            GPUDevice(SUMMIT_LIKE, capacity_bytes=0)


class TestSplitColumns:
    def test_covers_range(self):
        bounds = split_columns(11, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 11
        widths = [hi - lo for lo, hi in bounds]
        assert max(widths) - min(widths) <= 1

    def test_more_devices_than_columns(self):
        bounds = split_columns(2, 4)
        assert sum(hi - lo for lo, hi in bounds) == 2

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            split_columns(5, 0)


def stage_time(a, b, devices, kind=KernelKind.GPU_NSPARSE):
    """``_gpu_stage_time`` on ``A·B`` as the engine calls it."""
    c = spgemm_esc(a, b)
    return _gpu_stage_time(
        SUMMIT_LIKE, kind, a.memory_bytes(), b.indptr, c.indptr, devices,
        flops_per_column(a, b),
    )


def slab_prices(a, b, ndevices, kind=KernelKind.GPU_NSPARSE):
    """Per device: (kernel seconds, B-slab bytes, C-slab bytes), computed
    from the slabs themselves rather than from the engine's byte counts."""
    c = spgemm_esc(a, b)
    per_col = flops_per_column(a, b)
    out = []
    for lo, hi in split_columns(b.ncols, ndevices):
        b_slab, c_slab = b.column_slab(lo, hi), c.column_slab(lo, hi)
        slab_flops = float(per_col[lo:hi].sum())
        cf = slab_flops / c_slab.nnz if c_slab.nnz else 1.0
        seconds = SUMMIT_LIKE.gpu_spgemm_time(
            kind, slab_flops, cf, a.memory_bytes() + b_slab.memory_bytes()
        )
        out.append((seconds, b_slab.memory_bytes(), c_slab.memory_bytes()))
    return out


class TestMultiGpu:
    """The device split of ``summa.engine._gpu_stage_time`` (§III-A)."""

    def test_result_matches_single(self, small_pair):
        # One device prices the product as a whole.
        a, b = small_pair
        c = spgemm_esc(a, b)
        f = float(flops_per_column(a, b).sum())
        seconds, h2d, d2h = stage_time(a, b, [GPUDevice(SUMMIT_LIKE)])
        assert seconds == SUMMIT_LIKE.gpu_spgemm_time(
            KernelKind.GPU_NSPARSE, f, f / c.nnz,
            a.memory_bytes() + b.memory_bytes(),
        )
        assert h2d == a.memory_bytes() + b.memory_bytes()
        assert d2h == c.memory_bytes()

    def test_kernel_time_is_max_of_devices(self, small_pair):
        a, b = small_pair
        devs = [GPUDevice(SUMMIT_LIKE, i) for i in range(3)]
        seconds, _, _ = stage_time(a, b, devs)
        # Devices run concurrently: the stage takes its slowest slab.
        assert seconds == max(t for t, _, _ in slab_prices(a, b, 3))

    def test_transfers_counted(self, small_pair):
        a, b = small_pair
        g = 4
        devs = [GPUDevice(SUMMIT_LIKE, i) for i in range(g)]
        _, h2d, d2h = stage_time(a, b, devs, KernelKind.GPU_RMERGE2)
        slabs = slab_prices(a, b, g, KernelKind.GPU_RMERGE2)
        # A is replicated to every device, B and C are split.
        assert h2d >= g * a.memory_bytes()
        assert h2d == g * a.memory_bytes() + sum(bb for _, bb, _ in slabs)
        assert d2h == sum(cb for _, _, cb in slabs)

    def test_launch_counted_per_device(self, small_pair):
        a, b = small_pair
        devs = [GPUDevice(SUMMIT_LIKE, i) for i in range(2)]
        stage_time(a, b, devs, KernelKind.GPU_BHSPARSE)
        assert [d.kernel_launches for d in devs] == [1, 1]
        assert all(d.allocated_bytes == 0 for d in devs)

    def test_oom_propagates(self, small_pair):
        a, b = small_pair
        devs = [GPUDevice(SUMMIT_LIKE, 0, capacity_bytes=64)]
        with pytest.raises(DeviceMemoryError):
            stage_time(a, b, devs)

    def test_oom_leaves_device_clean(self, small_pair):
        # A fits on the failing device, its B slab does not; whichever
        # device fails, none keeps an allocation.
        a, b = small_pair
        for failing in range(3):
            devs = [
                GPUDevice(
                    SUMMIT_LIKE, i,
                    capacity_bytes=(
                        a.memory_bytes() + 64 if i == failing else None
                    ),
                )
                for i in range(3)
            ]
            with pytest.raises(DeviceMemoryError, match=f"GPU {failing}"):
                stage_time(a, b, devs)
            assert [d.allocated_bytes for d in devs] == [0, 0, 0]

    def test_cpu_kernel_rejected(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            stage_time(a, b, [GPUDevice(SUMMIT_LIKE)], KernelKind.CPU_HASH)

    def test_no_devices_rejected(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            stage_time(a, b, [])

    def test_unfaultable_fast_path_matches_per_allocation_path(
        self, small_pair
    ):
        # Without an injector a device that fits its share skips the
        # per-tag allocations; an attached injector that never fires
        # takes them.  Prices, peaks and launches must agree.
        from repro.resilience import FaultInjector, FaultPlan

        a, b = small_pair
        runs = []
        for injector in (None, FaultInjector(FaultPlan())):
            devs = [
                GPUDevice(SUMMIT_LIKE, i, injector=injector) for i in range(6)
            ]
            out = stage_time(a, b, devs) + stage_time(a, b, devs)
            runs.append((
                out,
                [d.peak_bytes for d in devs],
                [d.kernel_launches for d in devs],
                [d.allocated_bytes for d in devs],
            ))
        assert runs[0] == runs[1]
        assert runs[0][2] == [2] * 6 and runs[0][3] == [0] * 6

    def test_more_devices_than_columns_still_correct(self):
        a = random_csc((10, 8), 0.4, seed=1)
        b = random_csc((8, 2), 0.6, seed=2)
        devs = [GPUDevice(SUMMIT_LIKE, i) for i in range(6)]
        seconds, h2d, d2h = stage_time(a, b, devs)
        slabs = slab_prices(a, b, 6)
        # Four devices get an empty slab and still pay a launch.
        assert seconds == max(t for t, _, _ in slabs)
        assert h2d == 6 * a.memory_bytes() + sum(bb for _, bb, _ in slabs)
        assert d2h == sum(cb for _, _, cb in slabs)
        assert all(d.kernel_launches == 1 for d in devs)
