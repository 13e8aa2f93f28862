"""Merging of SUMMA intermediate products (paper §IV).

:class:`TripleList` is the sorted coordinate-list representation of one
stage's partial result; the three merge *schedules* (multiway, immediate
two-way, and the paper's binary merge) consume the per-stage stream and
report exact memory peaks plus modeled operation counts.  One compiled
engine (:mod:`repro.perf.merge`, a left-to-right chain of sorted two-way
additions) does every physical merge; the SpKAdd module (arXiv:2112.10223)
holds the serial/tree/hash plan labels and their memory model.
"""

from .lists import BYTES_PER_TRIPLE, TripleList, merge_lists
from .schedule import (
    SCHEDULES,
    BinaryMergeSchedule,
    MergeEvent,
    MergeOutcome,
    MultiwayMergeSchedule,
    TwoWayMergeSchedule,
    run_schedule,
)
from .spkadd import (
    SPKADD_MIN_ELEMENTS,
    STRATEGY_LADDER,
    spkadd_merge,
    strategy_peak_bytes,
)

__all__ = [
    "BYTES_PER_TRIPLE",
    "TripleList",
    "merge_lists",
    "SCHEDULES",
    "MergeEvent",
    "MergeOutcome",
    "MultiwayMergeSchedule",
    "TwoWayMergeSchedule",
    "BinaryMergeSchedule",
    "run_schedule",
    "STRATEGY_LADDER",
    "SPKADD_MIN_ELEMENTS",
    "strategy_peak_bytes",
    "spkadd_merge",
]
