"""The work units the executor fans out.

Every function here is a *pure* top-level function of real matrices (the
transport layer has already materialized shared-memory handles by the time
they run): no fault-injection draws, no simulated-clock access, no global
accumulation.  That purity is what lets the engine run them in any process
and still guarantee bit-identical results — all modeled accounting happens
afterwards, serially, in the parent.
"""

from __future__ import annotations

from ..sparse import CSCMatrix


def local_multiply(a: CSCMatrix, b: CSCMatrix):
    """One SUMMA-stage local product in the row-major form the merge takes:
    ``((A_ik · B_kj)ᵀ, indptr of the product, per-column flops)``.

    Exactly what ``spgemm_esc(a, b, transposed=True)`` returns — the call
    each block of the engine's column task
    (:func:`repro.summa.engine.compute_column`) makes per product.  The smallest real work unit, which the executor
    and transport tests run.
    """
    from ..spgemm.esc import spgemm_esc

    return spgemm_esc(a, b, transposed=True)


def probe_state():
    """Report the worker-side global state (tests / diagnostics)."""
    import os
    import threading

    from .executor import get_executor, in_worker

    return {
        "pid": os.getpid(),
        "thread": threading.get_ident(),
        "in_worker": in_worker(),
        "nested_executor": type(get_executor(4)).__name__,
        "nested_thread_executor": type(
            get_executor(4, backend="thread")
        ).__name__,
    }
