"""Multicore execution layer: parallel batches of independent work.

The simulator's *modeled* concurrency (pipelined Sparse SUMMA overlapping
stage-k multiplies with stage-(k+1) broadcasts) runs on simulated clocks;
this package makes the *wall-clock* scale with cores too.  An
:class:`~repro.parallel.executor.Executor` fans genuinely independent work
units — the block columns of a multiply, each one task (its blocks' stage
products and merges, then the column's prune), and the block columns of
an inflation — across one persistent thread pool in the caller's address
space.  The caller works as one of its threads: tasks pass by reference,
matrix caches are shared, and the parallelism comes from the compiled
kernels' GIL-free sections.  ``submit_batch`` is asynchronous; the SUMMA
engine submits each multiply's block columns with it.

The determinism contract is the same one the numeric kernels and the
resilience layer pin: every worker count is **bit-identical** to
serial.  Parallelism only relocates computation, never reorders a
reduction — results are gathered and consumed in the same deterministic
order the serial loop uses, and every fault-injection draw stays in the
caller.  See ``docs/performance.md`` ("Multicore execution").

The worker count, in precedence order:

1. an explicit ``workers=`` keyword (``hipmcl``, ``summa_multiply``, the
   benches) or ``--workers`` on the CLI and tools;
2. the ``REPRO_WORKERS`` environment variable (``REPRO_WORKERS=auto``/``0``
   means one worker per usable core);
3. the default: one worker, which runs every task inline.
"""

from .executor import (
    BatchHandle,
    SerialExecutor,
    get_executor,
    in_worker,
    resolve_workers,
    shutdown_executors,
)
from .threads import ThreadExecutor

#: Structural protocol: anything with ``.workers``, ``.run_batch``,
#: ``.submit_batch`` and ``.close``.
Executor = SerialExecutor | ThreadExecutor

__all__ = [
    "BatchHandle",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "in_worker",
    "resolve_workers",
    "shutdown_executors",
]
