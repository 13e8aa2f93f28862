"""Tests for the mcl-style abc edge-list I/O."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import random_csc
from repro.sparse.abcio import (
    read_abc,
    write_abc,
    write_clusters_with_labels,
)


def test_roundtrip_numeric_labels(tmp_path):
    mat = random_csc((20, 20), 0.15, seed=1)
    path = tmp_path / "net.abc"
    write_abc(mat, path)
    back, labels = read_abc(path)
    # Label order is first-appearance, so compare via the dictionary.
    perm = np.array([int(lbl) for lbl in labels])
    dense = np.zeros((20, 20))
    dense[np.ix_(perm, perm)] = back.to_dense()
    assert np.allclose(dense, mat.to_dense())


def test_string_labels(tmp_path):
    path = tmp_path / "prot.abc"
    path.write_text("P1\tP2\t3.5\nP2\tP3\t1.25\n")
    mat, labels = read_abc(path)
    assert labels == ["P1", "P2", "P3"]
    dense = mat.to_dense()
    assert dense[1, 0] == 3.5  # column 0 = out-edges of P1
    assert dense[2, 1] == 1.25


def test_missing_weight_defaults(tmp_path):
    path = tmp_path / "p.abc"
    path.write_text("a\tb\nb\tc\t2.0\n")
    mat, _ = read_abc(path, default_weight=7.0)
    assert sorted(mat.data.tolist()) == [2.0, 7.0]


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.abc"
    path.write_text("# header\n\na\tb\t1.0\n")
    mat, labels = read_abc(path)
    assert mat.nnz == 1 and labels == ["a", "b"]


def test_duplicates_summed(tmp_path):
    path = tmp_path / "d.abc"
    path.write_text("a\tb\t1.0\na\tb\t2.0\n")
    mat, _ = read_abc(path)
    assert mat.nnz == 1 and mat.data[0] == 3.0


def test_symmetrize(tmp_path):
    path = tmp_path / "s.abc"
    path.write_text("a\tb\t2.0\nb\ta\t5.0\n")
    mat, _ = read_abc(path, symmetrize=True)
    dense = mat.to_dense()
    assert dense[0, 1] == 5.0 and dense[1, 0] == 5.0


def test_undirected_write_halves_lines(tmp_path):
    from repro.sparse import symmetrize_max

    mat = symmetrize_max(random_csc((12, 12), 0.2, seed=2))
    full = tmp_path / "full.abc"
    half = tmp_path / "half.abc"
    write_abc(mat, full, directed=True)
    write_abc(mat, half, directed=False)
    n_full = len(full.read_text().splitlines())
    n_half = len(half.read_text().splitlines())
    assert n_half < n_full
    back, labels = read_abc(half, symmetrize=True)
    # Same nonzero count after symmetrization (diagonal-free matrix).
    assert back.nnz == mat.nnz


def test_bad_weight_rejected(tmp_path):
    path = tmp_path / "bad.abc"
    path.write_text("a\tb\tNOPE\n")
    with pytest.raises(FormatError):
        read_abc(path)


def test_negative_weight_rejected(tmp_path):
    path = tmp_path / "neg.abc"
    path.write_text("a\tb\t-1.0\n")
    with pytest.raises(FormatError):
        read_abc(path)


def test_wrong_field_count(tmp_path):
    path = tmp_path / "w.abc"
    path.write_text("a\tb\t1.0\textra\n")
    with pytest.raises(FormatError):
        read_abc(path)


def test_write_needs_square():
    with pytest.raises(FormatError):
        write_abc(random_csc((3, 4), 0.5, 1), "/tmp/x.abc")


def test_label_count_checked(tmp_path):
    mat = random_csc((3, 3), 0.5, seed=3)
    with pytest.raises(FormatError):
        write_abc(mat, tmp_path / "x.abc", labels=["a", "b"])


def test_cluster_lines_with_labels(tmp_path):
    path = tmp_path / "clusters.tsv"
    write_clusters_with_labels([[0, 2], [1]], ["A", "B", "C"], path)
    assert path.read_text() == "A\tC\nB\n"


def test_end_to_end_cluster_abc_network(tmp_path):
    """The real pipeline: abc file → MCL → labeled cluster file."""
    from repro.mcl import MclOptions, markov_cluster
    from repro.nets import planted_network

    net = planted_network(60, intra_degree=8, inter_degree=0.5, seed=9,
                          min_cluster=6, max_cluster=15)
    names = [f"PROT{i:04d}" for i in range(60)]
    abc = tmp_path / "net.abc"
    write_abc(net.matrix, abc, labels=names, directed=False)
    mat, labels = read_abc(abc, symmetrize=True)
    res = markov_cluster(mat, MclOptions(select_number=10))
    out = tmp_path / "clusters.tsv"
    write_clusters_with_labels(res.clusters(), labels, out)
    text = out.read_text()
    assert text.count("PROT") == 60  # every protein appears exactly once
