"""Conversion tests: DCSC decompresses to the CSC it came from."""

from repro.sparse import DCSCMatrix, random_csc


def test_dcsc_conversions():
    mat = random_csc((40, 50), 0.05, seed=7)
    d = DCSCMatrix.from_csc(mat)
    assert d.to_csc().same_pattern_and_values(mat.sorted())
