"""Tests for the flops/cf-based hybrid kernel selector (paper §III)."""

import numpy as np
import pytest

from repro.machine import SUMMIT_LIKE
from repro.spgemm import (
    KernelKind,
    SelectionPolicy,
    WorkProfile,
    select_kernel,
)
from repro.spgemm.hybrid import KERNEL_KINDS, kernel_for_work, kernels_for_work


def profile(flops, cf):
    return WorkProfile(
        flops=flops,
        nnz_a=100,
        nnz_b=100,
        nnz_c=max(1, int(flops / cf)),
        cf=cf,
        max_column_flops=flops,
        mean_column_flops=flops,
    )


POLICY = SelectionPolicy(
    gpu_min_flops=1e5, gpu_cf_nsparse_min=4.0, cpu_cf_hash_min=2.0
)


class TestSelection:
    def test_large_flops_large_cf_goes_nsparse(self):
        assert (
            select_kernel(profile(10**7, 30.0), policy=POLICY)
            is KernelKind.GPU_NSPARSE
        )

    def test_large_flops_small_cf_goes_rmerge2(self):
        assert (
            select_kernel(profile(10**7, 1.2), policy=POLICY)
            is KernelKind.GPU_RMERGE2
        )

    def test_small_flops_stays_on_cpu(self):
        kind = select_kernel(profile(10**3, 30.0), policy=POLICY)
        assert not kind.on_gpu

    def test_cpu_large_cf_hash(self):
        assert (
            select_kernel(profile(10**3, 10.0), policy=POLICY)
            is KernelKind.CPU_HASH
        )

    def test_cpu_small_cf_heap(self):
        assert (
            select_kernel(profile(10**3, 1.1), policy=POLICY)
            is KernelKind.CPU_HEAP
        )

    def test_no_gpu_forces_cpu(self):
        kind = select_kernel(
            profile(10**8, 50.0), gpu_available=False, policy=POLICY
        )
        assert kind is KernelKind.CPU_HASH

    def test_threshold_boundary_inclusive(self):
        kind = select_kernel(profile(int(1e5), 4.0), policy=POLICY)
        assert kind is KernelKind.GPU_NSPARSE


@pytest.mark.parametrize("gpu_available", [True, False])
def test_array_pick_matches_scalar_pick_at_every_threshold(gpu_available):
    # kernels_for_work is kernel_for_work elementwise, boundaries included.
    flops = np.array([0, 1, 99_999, 100_000, 100_001, 10**9])
    cf = np.array([1.0, 1.999, 2.0, 3.999, 4.0, 4.001, 50.0])
    f, c = (x.ravel() for x in np.meshgrid(flops, cf))
    codes = kernels_for_work(f, c, gpu_available=gpu_available, policy=POLICY)
    assert [KERNEL_KINDS[n] for n in codes.tolist()] == [
        kernel_for_work(
            int(x), float(y), gpu_available=gpu_available, policy=POLICY
        )
        for x, y in zip(f, c)
    ]


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy(gpu_min_flops=-1)
        with pytest.raises(ValueError):
            SelectionPolicy(gpu_cf_nsparse_min=0.5)

    def test_machine_policy_roundtrip(self):
        pol = SUMMIT_LIKE.selection_policy()
        assert pol.gpu_min_flops == SUMMIT_LIKE.gpu_min_flops


class TestKernelKind:
    def test_on_gpu_flag(self):
        # The paper's two CPU kernels and three GPU libraries.
        assert [k.value for k in KernelKind if not k.on_gpu] == [
            "cpu-heap", "cpu-hash",
        ]
        assert [k.value for k in KernelKind if k.on_gpu] == [
            "bhsparse", "nsparse", "rmerge2",
        ]
