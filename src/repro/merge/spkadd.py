"""SpKAdd: the plan labels and memory model of the k-way addition.

Hussain/Abhishek/Buluç/Azad (arXiv:2112.10223) frame the summation of
SUMMA's per-stage partial products as *SpKAdd* — sparse addition of k
matrices — with serial, tree and hash variants that differ in time and
peak memory.  Here the three names are **plan labels**: what
``repro.summa.phases.plan_merge_strategy`` selects from the input size,
the budget (:func:`strategy_peak_bytes` prices each label) and the
fault-recovery rung, and what the run reports in
``merge_strategy_selections``.  No caller picks a label; the planner
does.  The ladder mirrors the kernel-demotion ladder: hash is the
hungriest model, tree is in between, serial is the floor.

One numeric engine runs behind every label: :func:`spkadd_merge` is
:func:`~repro.merge.lists.merge_lists` (the compiled left-to-right
addition chain of :mod:`repro.perf.merge`), inline in the calling
process.  Their analysis puts repeated sorted two-way addition at
O(k · Σ nnz) streaming work, a loss only as k grows; a merge event here
has k ≤ 4.
"""

from __future__ import annotations

from .lists import BYTES_PER_TRIPLE, TripleList, merge_lists

#: Plan labels ordered most- to least-memory-hungry; the budget demotion
#: and the fault-recovery ladder walk *down* this tuple.
STRATEGY_LADDER = ("hash", "tree", "serial")

#: Below this many total input elements the planner labels a merge
#: "serial"; the threshold is a pure function of the input so planning
#: stays identical across worker counts.
SPKADD_MIN_ELEMENTS = 4096


def strategy_peak_bytes(strategy: str, total_elements: int, shape) -> int:
    """Modeled peak merge memory of one strategy on ``total_elements``.

    The figures price the SpKAdd variant each label names — they feed the
    budget demotion, not the engine that physically runs:

    * serial — concatenation plus the sorted copy: ``2n`` triples.
    * tree — concatenated key/value slices plus one merged generation in
      flight: ``3n`` triples.
    * hash — the concatenation plus the dense accumulator (8-byte sum +
      1-byte occupancy flag per cell), the Table III-style price of the
      scatter table.
    """
    n = int(total_elements)
    if strategy == "serial":
        return 2 * n * BYTES_PER_TRIPLE
    if strategy == "tree":
        return 3 * n * BYTES_PER_TRIPLE
    if strategy == "hash":
        nrows, ncols = shape
        return n * BYTES_PER_TRIPLE + int(nrows) * int(ncols) * 9
    raise ValueError(
        f"unknown merge strategy {strategy!r}; options: {list(STRATEGY_LADDER)}"
    )


def spkadd_merge(lists, *, strategy="tree") -> TripleList:
    """SpKAdd of ``lists`` under a planned strategy label.

    Every strategy reaches the engine behind :func:`merge_lists`, so the
    result is the same whatever was planned; an unknown label is rejected
    before any short-circuit.
    """
    if strategy not in STRATEGY_LADDER:
        raise ValueError(
            f"unknown merge strategy {strategy!r}; "
            f"options: {list(STRATEGY_LADDER)}"
        )
    return merge_lists(lists, copy=False)
