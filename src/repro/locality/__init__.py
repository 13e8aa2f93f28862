"""Locality: incremental re-clustering from a converged run.

:mod:`repro.locality.delta` applies a :class:`GraphDelta` to a converged
run's graph and warm-starts from the previous labels, re-clustering only
the components the delta touches.  Driver surface:
``hipmcl(warm_start=WarmStart(labels, delta))``, CLI ``recluster``,
service delta jobs keyed on ``(base fingerprint, delta fingerprint)``.
"""

from .delta import (
    GraphDelta,
    WarmStart,
    dirty_vertices,
    induced_subgraph,
    localized_delta,
    parse_delta_lines,
    random_delta,
    read_delta_file,
    run_warm_start,
)

__all__ = [
    "GraphDelta",
    "WarmStart",
    "dirty_vertices",
    "induced_subgraph",
    "localized_delta",
    "parse_delta_lines",
    "random_delta",
    "read_delta_file",
    "run_warm_start",
]
