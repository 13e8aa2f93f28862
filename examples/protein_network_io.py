#!/usr/bin/env python
"""End-to-end workflow with file I/O: the HipMCL user's path.

Writes a generated protein-similarity network to a MatrixMarket file (the
exchange format HipMCL-style tools consume), reads it back, preprocesses
it the way the mcl pipeline does (symmetrize, self loops, normalize), runs
distributed clustering on the simulated machine, and writes the clusters
to a TSV file — one cluster per line, as ``mcl`` outputs.

Run:  python examples/protein_network_io.py [outdir]

Without ``outdir`` the files go to a temporary directory that is removed
when the example exits.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.mcl import MclOptions
from repro.mcl.hipmcl import HipMCLConfig, hipmcl
from repro.nets import planted_network
from repro.sparse import read_matrix_market, write_matrix_market


def main() -> None:
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-") as tmp:
            run(Path(tmp))


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)

    # 1. Generate and persist the network.
    net = planted_network(
        400, intra_degree=22.0, inter_degree=1.0,
        min_cluster=8, max_cluster=50, seed=3, name="demo",
    )
    mtx_path = outdir / "network.mtx"
    write_matrix_market(net.matrix, mtx_path)
    print(f"wrote {mtx_path} ({net.matrix.nnz} entries)")

    # 2. Read it back (any MatrixMarket coordinate file works here).
    matrix = read_matrix_market(mtx_path)
    assert matrix.same_pattern_and_values(net.matrix.sorted(), tol=1e-12)

    # 3. Cluster on 16 virtual nodes with the optimized HipMCL.
    result = hipmcl(
        matrix,
        MclOptions(inflation=2.0, prune_threshold=1e-4, select_number=30),
        HipMCLConfig.optimized(nodes=16),
    )
    print(
        f"clustered: {result.n_clusters} clusters in {result.iterations} "
        f"iterations ({result.elapsed_seconds * 1e3:.1f} simulated ms on "
        "16 virtual nodes)"
    )

    # 4. Write clusters, mcl-style: one whitespace-separated line each.
    out_path = outdir / "clusters.tsv"
    from repro.mcl import clusters_from_labels

    with open(out_path, "w", encoding="ascii") as fh:
        for cluster in clusters_from_labels(result.labels):
            fh.write("\t".join(str(v) for v in cluster) + "\n")
    print(f"wrote {out_path}")

    sizes = [len(c) for c in clusters_from_labels(result.labels)[:8]]
    print(f"largest clusters: {sizes}")


if __name__ == "__main__":
    main()
