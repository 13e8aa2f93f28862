"""MatrixMarket-style I/O for sparse matrices.

HipMCL ingests protein-similarity networks as coordinate-format text files
(one ``row col value`` triple per line).  This module reads/writes a
compatible subset of the MatrixMarket exchange format so example scripts
can round-trip networks to disk.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from ..errors import FormatError
from . import _compressed as _c
from .construct import csc_from_triples
from .csc import CSCMatrix


HEADER = "%%MatrixMarket matrix coordinate real general"


def write_matrix_market(mat: CSCMatrix, path) -> None:
    """Write a CSC matrix as 1-indexed MatrixMarket coordinate text."""
    mat = mat.sum_duplicates()
    cols = _c.expand_major(mat.indptr, mat.ncols)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(HEADER + "\n")
        fh.write(f"{mat.nrows} {mat.ncols} {mat.nnz}\n")
        # Build the whole body in memory with numpy's savetxt-free path:
        # formatting a few hundred thousand lines in Python would be slow,
        # so stack columns and let np.savetxt handle it.
        body = io.StringIO()
        triples = np.column_stack((mat.indices + 1, cols + 1, mat.data))
        np.savetxt(body, triples, fmt="%d %d %.17g")
        fh.write(body.getvalue())


def read_matrix_market(path) -> CSCMatrix:
    """Read a (subset of) MatrixMarket coordinate file into CSC.

    Supports ``real``/``integer``/``pattern`` fields and the ``general``/
    ``symmetric`` symmetries; pattern entries get value 1.0 and symmetric
    files are expanded to both triangles.
    """
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.lower().startswith("%%matrixmarket"):
            raise FormatError(f"{path}: missing MatrixMarket header")
        tokens = header.lower().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise FormatError(f"{path}: unsupported header {header!r}")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("real", "integer", "pattern"):
            raise FormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise FormatError(f"{path}: unsupported symmetry {symmetry!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}: bad size line {line!r}")
        nrows, ncols, nnz = (int(p) for p in parts)
        if max(nrows, ncols, nnz) >= _c.INDEX_LIMIT:
            raise FormatError(
                f"{path}: size line {line.strip()!r} exceeds the index "
                f"limit {_c.INDEX_LIMIT}"
            )
        want_cols = 2 if field == "pattern" else 3
        data = np.loadtxt(fh, ndmin=2) if nnz else np.empty((0, want_cols))
    if nnz and data.shape != (nnz, want_cols):
        raise FormatError(
            f"{path}: expected {nnz} x {want_cols} entries, got {data.shape}"
        )
    rows = data[:, 0].astype(np.int64) - 1
    cols = data[:, 1].astype(np.int64) - 1
    vals = data[:, 2] if field != "pattern" else np.ones(len(rows))
    if symmetry == "symmetric":
        off = rows != cols
        rows = np.concatenate((rows, cols[off]))
        cols2 = np.concatenate((cols, data[:, 0].astype(np.int64)[off] - 1))
        vals = np.concatenate((vals, vals[off]))
        cols = cols2
    return csc_from_triples((nrows, ncols), rows, cols, vals)
