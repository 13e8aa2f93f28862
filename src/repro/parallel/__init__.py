"""Multicore execution layer: parallel batches of independent work.

The simulator's *modeled* concurrency (pipelined Sparse SUMMA overlapping
stage-k multiplies with stage-(k+1) broadcasts) runs on simulated clocks;
this package makes the *wall-clock* scale with cores too.  An
:class:`~repro.parallel.executor.Executor` fans genuinely independent work
units — the block columns of a multiply, each one task (its blocks' stage
products and merges, then the column's prune), and the block columns of
an inflation — across a persistent pool.  Two pool kinds implement the
protocol:

* ``backend="thread"`` — a thread pool in the parent's address space
  whose caller works as one of its threads: zero-copy task passing,
  shared matrix caches, parallelism from the compiled kernels' GIL-free
  sections;
* ``backend="process"`` — a ``multiprocessing`` pool moving CSC blocks
  through POSIX shared memory (zero-pickle ``indptr/indices/data``) with
  a pickling fallback for small blocks.

Both offer an asynchronous ``submit_batch``; the SUMMA engine submits
each multiply's block columns with it.

The determinism contract is the same one the numeric kernels and the
resilience layer pin: every ``(backend, workers)`` combination is
**bit-identical** to serial.  Parallelism only relocates computation,
never reorders a reduction — results are gathered and consumed in the
same deterministic order the serial loop uses, and
every fault-injection draw stays in the parent.  See
``docs/performance.md`` ("Execution backends").

Backend selection, in precedence order (each axis independently):

1. explicit ``workers=`` / ``backend=`` keywords (``hipmcl``,
   ``summa_multiply``, the benches) or ``--workers`` / ``--backend`` on
   the CLI and tools;
2. the ``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment variables
   (``REPRO_WORKERS=auto``/``0`` means one worker per usable core);
3. the defaults: serial execution (one worker), thread pools when a
   count is given without a backend.
"""

from .executor import (
    BACKENDS,
    BatchHandle,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    in_worker,
    resolve_backend,
    resolve_workers,
    shutdown_executors,
)
from .shm import SHM_MIN_BYTES
from .threads import ThreadExecutor

#: Structural protocol: anything with ``.workers``, ``.run_batch``,
#: ``.submit_batch`` and ``.close``.
Executor = SerialExecutor | ThreadExecutor | ProcessExecutor

__all__ = [
    "BACKENDS",
    "BatchHandle",
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "in_worker",
    "resolve_backend",
    "resolve_workers",
    "shutdown_executors",
    "SHM_MIN_BYTES",
]
