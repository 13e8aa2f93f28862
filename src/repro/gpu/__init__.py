"""Simulated GPU substrate: the §III-A column split of B across one
node's devices.

The three GPU SpGEMM libraries (bhsparse, nsparse, rmerge2) are modelled
by cost, not re-implemented: their device time is
:meth:`repro.machine.spec.MachineSpec.gpu_spgemm_time`, and a node's
device memory is ``MachineSpec.gpu_memory_bytes`` per GPU.
"""

from .device import split_columns

__all__ = ["split_columns"]
