"""Shared-memory CSC transport for the process executor.

A :class:`~repro.sparse.csc.CSCMatrix` crossing a process boundary through
a pipe would be pickled — three array copies in, three out.  This module
instead places ``indptr/indices/data`` back-to-back in one POSIX shared
memory segment and ships only a small descriptor; the receiving process
maps the segment and wraps the arrays **zero-copy** (the canonical dtypes
are already ``int64``/``float64``, so ``CSCMatrix`` does not re-copy).

Small blocks fall back to plain pickling (the descriptor carries the
arrays themselves): below :data:`SHM_MIN_BYTES` the two syscalls plus a
page-granular mapping cost more than the memcpy they avoid.

Lifetime rules
--------------
* **Parent-exported** segments (worker inputs) are memoized on the matrix
  instance (one segment per matrix, however many batches reuse it) and
  unlinked by a ``weakref.finalize`` when the matrix is garbage-collected
  — the segment's lifetime *is* the matrix's lifetime, mirroring
  :mod:`repro.perf.cache`.
* **Worker-exported** segments (results) are handed over to the parent:
  the worker unregisters them from its own resource tracker, the parent
  copies the arrays out and unlinks immediately.
* Workers keep a small LRU of attached input segments so a block reused
  across SUMMA stages/phases is mapped once.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from ..sparse import CSCMatrix
from ..sparse import _compressed as _c
from ..trace import maybe_span

#: Blocks whose arrays total fewer bytes than this are pickled instead of
#: going through a shared-memory segment.
SHM_MIN_BYTES = 1 << 16

#: Attached-segment LRU size in the workers (segments, not bytes; each
#: entry is one mapped block of the current or a recent iteration).
ATTACH_CACHE_SEGMENTS = 128

#: Finalizers of every live parent-exported segment, so an explicit
#: shutdown can unlink segments whose matrices are still referenced.
_live_exports: set = set()

#: Worker-side LRU: segment name -> (SharedMemory, CSCMatrix view).
_attached: OrderedDict = OrderedDict()


def _unlink(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
        seg.unlink()
    except (FileNotFoundError, OSError):  # already gone (shutdown races)
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without claiming ownership of it.

    CPython < 3.13 registers *attachments* with the resource tracker as if
    they were creations.  All our processes are one pool family sharing a
    single tracker process whose cache is a *set*, so the re-register is a
    harmless no-op and the one ``unlink`` (wherever it happens) retires
    the entry — no explicit unregister bookkeeping is needed, and doing it
    anyway would desynchronize the shared tracker.
    """
    return shared_memory.SharedMemory(name=name)


def _pack(mat: CSCMatrix, seg_factory) -> tuple:
    """Copy a matrix's arrays into a fresh segment; return the handle."""
    n_ptr, n_idx = len(mat.indptr), len(mat.indices)
    total = mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes
    seg = seg_factory(total)
    o1 = mat.indptr.nbytes
    o2 = o1 + mat.indices.nbytes
    np.ndarray(n_ptr, _c.INDEX_DTYPE, buffer=seg.buf)[:] = mat.indptr
    np.ndarray(n_idx, _c.INDEX_DTYPE, buffer=seg.buf, offset=o1)[:] = (
        mat.indices
    )
    np.ndarray(n_idx, _c.VALUE_DTYPE, buffer=seg.buf, offset=o2)[:] = mat.data
    return seg, ("shm", seg.name, mat.shape, n_ptr, n_idx)


def _wrap(handle: tuple, seg: shared_memory.SharedMemory) -> CSCMatrix:
    """Zero-copy CSCMatrix over a mapped segment's buffer."""
    _, _, shape, n_ptr, n_idx = handle
    o1 = n_ptr * _c.INDEX_DTYPE().itemsize
    o2 = o1 + n_idx * _c.INDEX_DTYPE().itemsize
    indptr = np.ndarray(n_ptr, _c.INDEX_DTYPE, buffer=seg.buf)
    indices = np.ndarray(n_idx, _c.INDEX_DTYPE, buffer=seg.buf, offset=o1)
    data = np.ndarray(n_idx, _c.VALUE_DTYPE, buffer=seg.buf, offset=o2)
    return CSCMatrix(shape, indptr, indices, data, check=False)


# ---------------------------------------------------------------------------
# Parent side: exporting inputs, importing results
# ---------------------------------------------------------------------------


def export_csc(mat: CSCMatrix) -> tuple:
    """Descriptor for shipping ``mat`` to workers (memoized per matrix)."""
    total = mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes
    if total < SHM_MIN_BYTES:
        return ("pkl", mat.shape, mat.indptr, mat.indices, mat.data)
    from ..perf.cache import memo

    def build():
        with maybe_span("shm_export", "shm", nbytes=total):
            seg, handle = _pack(
                mat,
                lambda size: shared_memory.SharedMemory(
                    create=True, size=size
                ),
            )
        fin = weakref.finalize(mat, _unlink, seg)
        _live_exports.add(fin)
        return handle

    return memo(mat, "shm_export", build)


def _tag(value):
    """The transport tag of a handle tuple, or None for payload tuples
    (which may start with an ndarray — never compare those to strings)."""
    if isinstance(value, tuple) and value and isinstance(value[0], str):
        return value[0]
    return None


def import_result(value):
    """Materialize a worker's result in the parent (recursive)."""
    if _tag(value) == "pkl":
        _, shape, indptr, indices, data = value
        return CSCMatrix(shape, indptr, indices, data, check=False)
    if _tag(value) == "shm":
        seg = _attach(value[1])
        view = _wrap(value, seg)
        out = CSCMatrix(
            view.shape,
            view.indptr.copy(),
            view.indices.copy(),
            view.data.copy(),
            check=False,
        )
        del view
        _unlink(seg)
        return out
    if isinstance(value, tuple):
        return tuple(import_result(v) for v in value)
    if isinstance(value, list):
        return [import_result(v) for v in value]
    return value


def shutdown_transport() -> None:
    """Unlink every live parent-exported segment (executor shutdown)."""
    for fin in list(_live_exports):
        fin()
    _live_exports.clear()


def reset_after_fork() -> None:
    """Disarm transport state inherited through ``fork`` (pool initializer).

    A forked worker starts with a copy of the parent's export memos and
    armed ``weakref.finalize`` objects; left alone, a *worker's* normal
    exit would run them and unlink segments the parent still owns.
    Ownership stays with the parent: detach every inherited finalizer
    (without invoking it) and start with an empty attach cache.
    """
    for fin in list(_live_exports):
        fin.detach()
    _live_exports.clear()
    _attached.clear()


# ---------------------------------------------------------------------------
# Worker side: importing inputs, exporting results
# ---------------------------------------------------------------------------


def import_csc(handle: tuple) -> CSCMatrix:
    """Materialize a parent-exported block inside a worker (LRU-cached)."""
    kind = handle[0]
    if kind == "pkl":
        _, shape, indptr, indices, data = handle
        return CSCMatrix(shape, indptr, indices, data, check=False)
    name = handle[1]
    hit = _attached.get(name)
    if hit is not None:
        _attached.move_to_end(name)
        return hit[1]
    _, _, _, n_ptr, n_idx = handle
    nbytes = (n_ptr + n_idx) * _c.INDEX_DTYPE().itemsize
    nbytes += n_idx * _c.VALUE_DTYPE().itemsize
    with maybe_span("shm_attach", "shm", nbytes=nbytes):
        seg = _attach(name)
        mat = _wrap(handle, seg)
    _attached[name] = (seg, mat)
    while len(_attached) > ATTACH_CACHE_SEGMENTS:
        old_seg, old_mat = _attached.popitem(last=False)[1]
        del old_mat
        try:
            old_seg.close()
        except BufferError:  # a view escaped; leave it to process exit
            pass
    return mat


def export_result(value):
    """Prepare a worker's return value for the trip back (recursive).

    Matrices above the threshold travel through a fresh segment whose
    ownership transfers to the parent; everything else pickles.
    """
    if isinstance(value, CSCMatrix):
        total = (
            value.indptr.nbytes + value.indices.nbytes + value.data.nbytes
        )
        if total < SHM_MIN_BYTES:
            return ("pkl", value.shape, value.indptr, value.indices,
                    value.data)
        seg, handle = _pack(
            value,
            lambda size: shared_memory.SharedMemory(create=True, size=size),
        )
        seg.close()  # the parent attaches, copies out, and unlinks
        return handle
    if isinstance(value, tuple):
        return tuple(export_result(v) for v in value)
    if isinstance(value, list):
        return [export_result(v) for v in value]
    return value


def import_value(value):
    """Materialize a parent-exported argument inside a worker (recursive)."""
    if _tag(value) in ("pkl", "shm"):
        return import_csc(value)
    if isinstance(value, tuple):
        return tuple(import_value(v) for v in value)
    if isinstance(value, list):
        return [import_value(v) for v in value]
    return value


def export_value(value):
    """Prepare a parent-side argument for shipping (recursive)."""
    if isinstance(value, CSCMatrix):
        return export_csc(value)
    if isinstance(value, tuple):
        return tuple(export_value(v) for v in value)
    if isinstance(value, list):
        return [export_value(v) for v in value]
    return value
