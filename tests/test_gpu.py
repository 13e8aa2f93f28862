"""Tests for the §III-A multi-GPU column split the SUMMA engine prices
each offloaded local multiply with, and for its device memory check."""

import pytest

import repro.summa.engine as engine
from repro.gpu import split_columns
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid
from repro.parallel import get_executor
from repro.resilience import FaultPlan
from repro.sparse import random_csc
from repro.spgemm import KernelKind, flops_per_column, spgemm_esc
from repro.summa import DistributedCSC, Grid3DModel, SummaConfig

from helpers import slab_prices


class TestDevice:
    def test_fits(self, small_pair):
        # One device stages A, B and C: a share of exactly the capacity
        # fits, one byte more is a genuine OOM.
        a, b = small_pair
        (_seconds, h2d, d2h), outcome = plan_price(a, b, 1)
        assert outcome == "ok"
        assert plan_price(a, b, 1, capacity=h2d + d2h)[1] == "ok"
        assert plan_price(a, b, 1, capacity=h2d + d2h - 1)[1] == "oom"

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SUMMIT_LIKE.with_overrides(gpu_memory_bytes=0)


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


def plan_price(
    a, b, ndevices, kind=KernelKind.GPU_NSPARSE, capacity=None, injector=None
):
    """The engine's price of ``A·B`` on one rank with ``ndevices`` GPUs of
    ``capacity`` bytes (None: the spec's): the device price and the GPU
    outcome the fault schedule draws for it."""
    grid = ProcessGrid(1)
    dist_a, dist_b = (DistributedCSC.from_global(m, grid) for m in (a, b))
    spec = SUMMIT_LIKE
    if capacity is not None:
        spec = spec.with_overrides(gpu_memory_bytes=capacity)
    config = SummaConfig(
        spec=spec, kernel=kind.value, gpus_per_process=ndevices
    )
    _kept, products, blocks = engine._numeric_pass(
        dist_a, dist_b, 1, "binary", None, None, get_executor(1)
    )
    plan = engine._PricePlan(
        dist_a, dist_b, products, 1, config, Grid3DModel(1, 1, None)
    )
    plan.draw_faults(blocks, injector, None)
    *_counts, _kind, gpu, _events, m = plan.records[0][(0, 0, 0)]
    return gpu, plan.gpu_faults.get((m, 0), "ok")


class TestMultiGpu:
    """The engine's device split (§III-A) against the slabs themselves."""

    def test_result_matches_single(self, small_pair):
        # One device prices the product as a whole.
        a, b = small_pair
        c = spgemm_esc(a, b)
        f = float(flops_per_column(a, b).sum())
        (seconds, h2d, d2h), outcome = plan_price(a, b, 1)
        assert outcome == "ok"
        assert seconds == SUMMIT_LIKE.gpu_spgemm_time(
            KernelKind.GPU_NSPARSE, f, f / c.nnz,
            a.memory_bytes() + b.memory_bytes(),
        )
        assert h2d == a.memory_bytes() + b.memory_bytes()
        assert d2h == c.memory_bytes()

    def test_kernel_time_is_max_of_devices(self, small_pair):
        a, b = small_pair
        (seconds, _, _), _outcome = plan_price(a, b, 3)
        slabs = slab_prices(a, b, 3, KernelKind.GPU_NSPARSE)
        # Devices run concurrently: the stage takes its slowest slab.
        assert seconds == max(t for t, _, _ in slabs)

    def test_transfers_counted(self, small_pair):
        a, b = small_pair
        g = 4
        (_, h2d, d2h), _outcome = plan_price(a, b, g, KernelKind.GPU_RMERGE2)
        slabs = slab_prices(a, b, g, KernelKind.GPU_RMERGE2)
        # A is replicated to every device, B and C are split.
        assert h2d >= g * a.memory_bytes()
        assert h2d == g * a.memory_bytes() + sum(bb for _, bb, _ in slabs)
        assert d2h == sum(cb for _, _, cb in slabs)

    def test_launch_counted_per_device(self, small_pair):
        # A successful attempt draws three allocations and one launch per
        # device from the injector's streams.
        a, b = small_pair
        injector, fresh = FaultPlan().injector(), FaultPlan().injector()
        _price, outcome = plan_price(
            a, b, 2, KernelKind.GPU_BHSPARSE, injector=injector
        )
        assert outcome == "ok"
        for site, draws in (("gpu_alloc", 6), ("gpu_launch", 2)):
            fresh._rng[site].random(draws)
            assert injector._rng[site].random() == fresh._rng[site].random()

    def test_oom_propagates(self, small_pair):
        a, b = small_pair
        assert plan_price(a, b, 1, capacity=64)[1] == "oom"

    def test_cpu_kernel_rejected(self, small_pair):
        # A CPU kind has no device price.
        a, b = small_pair
        assert plan_price(a, b, 1, KernelKind.CPU_HASH) == (None, "ok")

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            SummaConfig(gpus_per_process=0)

    def test_unfaultable_fast_path_matches_per_allocation_path(
        self, small_pair
    ):
        # Without an injector a share fails only where it does not fit
        # (one array comparison); an attached injector that never fires
        # walks every allocation.  Prices and outcomes must agree, whether
        # A, A + B or A + B + C is the first not to fit.
        a, b = small_pair
        (_s, h2d, d2h), _ok = plan_price(a, b, 1)
        for g in (1, 3, 6):
            for capacity in (
                a.memory_bytes() - 1, a.memory_bytes() + 64, h2d + d2h - 1,
                h2d + d2h, None,
            ):
                runs = [
                    plan_price(
                        a, b, g, capacity=capacity, injector=injector
                    )
                    for injector in (None, FaultPlan().injector())
                ]
                assert runs[0] == runs[1], (g, capacity)

    def test_more_devices_than_columns_still_correct(self):
        a = random_csc((10, 8), 0.4, seed=1)
        b = random_csc((8, 2), 0.6, seed=2)
        (seconds, h2d, d2h), outcome = plan_price(a, b, 6)
        slabs = slab_prices(a, b, 6, KernelKind.GPU_NSPARSE)
        # Four devices get an empty slab and still pay a launch.
        assert outcome == "ok"
        assert seconds == max(t for t, _, _ in slabs)
        assert h2d == 6 * a.memory_bytes() + sum(bb for _, bb, _ in slabs)
        assert d2h == sum(cb for _, _, cb in slabs)
