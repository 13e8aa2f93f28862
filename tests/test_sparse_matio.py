"""MatrixMarket I/O tests."""

import pytest

from repro.errors import FormatError
from repro.sparse import (
    CSCMatrix,
    random_csc,
    read_matrix_market,
    write_matrix_market,
)


def test_roundtrip(tmp_path):
    mat = random_csc((37, 29), 0.12, seed=1)
    path = tmp_path / "m.mtx"
    write_matrix_market(mat, path)
    back = read_matrix_market(path)
    assert back.same_pattern_and_values(mat.sorted(), tol=1e-14)


def test_roundtrip_empty(tmp_path):
    mat = CSCMatrix.empty((5, 6))
    path = tmp_path / "e.mtx"
    write_matrix_market(mat, path)
    back = read_matrix_market(path)
    assert back.shape == (5, 6) and back.nnz == 0


def test_pattern_field(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 2\n1 2\n3 1\n"
    )
    mat = read_matrix_market(path)
    dense = mat.to_dense()
    assert dense[0, 1] == 1.0 and dense[2, 0] == 1.0


def test_symmetric_expansion(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n2 1 5.0\n3 3 7.0\n"
    )
    mat = read_matrix_market(path)
    dense = mat.to_dense()
    assert dense[1, 0] == 5.0 and dense[0, 1] == 5.0 and dense[2, 2] == 7.0


def test_comments_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n% another\n"
        "2 2 1\n1 1 3.0\n"
    )
    assert read_matrix_market(path).to_dense()[0, 0] == 3.0


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a header\n1 1 0\n")
    with pytest.raises(FormatError):
        read_matrix_market(path)


def test_unsupported_field_rejected(tmp_path):
    path = tmp_path / "cx.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
    )
    with pytest.raises(FormatError):
        read_matrix_market(path)


def test_wrong_entry_count_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n"
    )
    with pytest.raises(FormatError):
        read_matrix_market(path)
