"""Simulated GPU substrate: the device memory model and the §III-A
column split of B across one node's devices.

The three GPU SpGEMM libraries (bhsparse, nsparse, rmerge2) are modelled
by cost, not re-implemented: their device time is
:meth:`repro.machine.spec.MachineSpec.gpu_spgemm_time`.
"""

from .device import GPUDevice, split_columns

__all__ = ["GPUDevice", "split_columns"]
