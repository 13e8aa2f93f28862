"""Merge *schedules*: when intermediate lists get merged, and at what cost.

Three schedules from §IV, all consuming the same stream of per-stage
intermediate lists and producing the same final list:

* **multiway** — original HipMCL: buffer all k lists, one k-way heap merge
  at the end.  O(kn lg k) ops, but peak memory holds *every* intermediate
  element at once, and nothing can start before the last stage.
* **two-way (immediate)** — merge each arriving list into the running
  result.  O(n·k²) ops (many redundant passes), modest memory, occupies
  the CPU continuously.
* **binary** — the paper's Algorithm 2: a binary-counter stack; list i is
  pushed and, for every trailing set bit of i, the top lists are merged
  with a small heap.  O(kn lg k · lg lg k) ops, 20–25 % lower peak memory
  than multiway, and each merge event is localized at an even stage —
  which is what lets the pipelined SUMMA hide it behind the GPU multiply.

Each schedule is an incremental object (``push`` per stage, ``finish`` at
the end) returning a :class:`MergeOutcome` with exact element counts and
modeled operation counts; the event log drives the overlap simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lists import TripleList, merge_lists


@dataclass(frozen=True)
class MergeEvent:
    """One physical merge: which stage triggered it and the sizes involved."""

    stage: int  # 1-based arrival index that triggered the merge
    input_sizes: tuple[int, ...]
    output_size: int
    operations: float  # modeled comparison count

    @property
    def input_total(self) -> int:
        return sum(self.input_sizes)


@dataclass
class MergeOutcome:
    """Final merged list plus the accounting the paper's tables report."""

    result: TripleList
    events: list[MergeEvent]
    operations: float
    peak_event_elements: int  # max elements inside one merge (Table III's
    # "memory requirement ... determined by the merge that contains the
    # maximum number of elements")
    peak_resident_elements: int  # max elements simultaneously buffered


def _heap_merge_ops(sizes: list[int]) -> float:
    """Modeled comparisons of one heap merge of ``len(sizes)`` lists:
    every element passes through a heap of that size → N·lg(max(2, m))."""
    n = sum(sizes)
    m = max(2, len(sizes))
    return n * math.log2(m)


class _ScheduleBase:
    """Shared bookkeeping: event log, residency tracking, finish().

    A schedule defines ``push``, ``_merge_ops(sizes)`` (the modeled
    comparisons of one merge) and ``_final_list()`` (what remains to merge
    at the end).

    ``merge_fn`` swaps the numeric engine (default :func:`merge_lists`)
    without touching the schedule's accounting — every replacement must be
    bit-identical (``spkadd_merge`` under any label is), so events,
    operations, and peaks stay the same whatever engine physically runs.
    """

    def __init__(self, shape: tuple[int, int], merge_fn=None):
        self.shape = shape
        self._merge = merge_fn if merge_fn is not None else merge_lists
        self.events: list[MergeEvent] = []
        self.operations = 0.0
        self.peak_event = 0
        self.peak_resident = 0
        self._stage = 0

    def _record(self, sizes: list[int], merged: TripleList) -> None:
        ops = self._merge_ops(sizes)
        self.operations += ops
        self.events.append(
            MergeEvent(self._stage, tuple(sizes), len(merged), ops)
        )
        self.peak_event = max(self.peak_event, sum(sizes))

    def _note_resident(self, count: int) -> None:
        self.peak_resident = max(self.peak_resident, count)

    def finish(self) -> MergeOutcome:
        result = self._final_list()
        return MergeOutcome(
            result=result,
            events=self.events,
            operations=self.operations,
            peak_event_elements=self.peak_event,
            peak_resident_elements=self.peak_resident,
        )


class MultiwayMergeSchedule(_ScheduleBase):
    """Buffer everything; one k-way heap merge in :meth:`finish`."""

    def __init__(self, shape, merge_fn=None):
        super().__init__(shape, merge_fn)
        self._buffered: list[TripleList] = []

    def push(self, lst: TripleList) -> None:
        self._stage += 1
        self._buffered.append(lst)
        self._note_resident(sum(len(t) for t in self._buffered))

    def _merge_ops(self, sizes):
        return _heap_merge_ops(sizes)

    def _final_list(self) -> TripleList:
        if not self._buffered:
            return TripleList.empty(self.shape)
        sizes = [len(t) for t in self._buffered]
        merged = self._merge(self._buffered)
        self._record(sizes, merged)
        self._note_resident(sum(sizes) + len(merged))
        self._buffered = []
        return merged


class TwoWayMergeSchedule(_ScheduleBase):
    """Immediately merge each arriving list into the accumulated result."""

    def __init__(self, shape, merge_fn=None):
        super().__init__(shape, merge_fn)
        self._acc: TripleList | None = None

    def push(self, lst: TripleList) -> None:
        self._stage += 1
        if self._acc is None:
            self._acc = lst
            self._note_resident(len(lst))
            return
        sizes = [len(self._acc), len(lst)]
        self._note_resident(sum(sizes))
        merged = self._merge([self._acc, lst])
        self._record(sizes, merged)
        self._acc = merged

    def _merge_ops(self, sizes):
        # A two-way merge is linear in the sum of the inputs.
        return float(sum(sizes))

    def _final_list(self) -> TripleList:
        return self._acc if self._acc is not None else TripleList.empty(self.shape)


class BinaryMergeSchedule(_ScheduleBase):
    """The paper's Algorithm 2: binary-counter stack of partial merges.

    After pushing list i, while the running index has trailing even
    divisibility (j even, j ≠ 0 under repeated halving), pop one more list
    per level and merge the popped group with a heap.  ``finish`` merges
    whatever remains on the stack (the paper's implicit final step for
    non-power-of-two stage counts).
    """

    def __init__(self, shape, merge_fn=None):
        super().__init__(shape, merge_fn)
        self._stack: list[TripleList] = []

    def push(self, lst: TripleList) -> None:
        self._stage += 1
        self._stack.append(lst)
        self._note_resident(sum(len(t) for t in self._stack))
        j = self._stage
        nmerges = 0
        while j % 2 == 0 and j != 0:
            nmerges += 1
            j //= 2
        if nmerges == 0:
            return
        group = [self._stack.pop() for _ in range(nmerges + 1)]
        sizes = [len(t) for t in group]
        merged = self._merge(group)
        self._record(sizes, merged)
        self._stack.append(merged)
        self._note_resident(sum(len(t) for t in self._stack) + sum(sizes))

    def _merge_ops(self, sizes):
        return _heap_merge_ops(sizes)

    def _final_list(self) -> TripleList:
        if not self._stack:
            return TripleList.empty(self.shape)
        if len(self._stack) > 1:
            sizes = [len(t) for t in self._stack]
            merged = self._merge(self._stack)
            self._record(sizes, merged)
            self._stack = [merged]
        return self._stack[0]


SCHEDULES = {
    "multiway": MultiwayMergeSchedule,
    "twoway": TwoWayMergeSchedule,
    "binary": BinaryMergeSchedule,
}


def run_schedule(kind: str, lists: list[TripleList], shape,
                 merge_fn=None) -> MergeOutcome:
    """Feed ``lists`` through the named schedule and return the outcome."""
    try:
        cls = SCHEDULES[kind]
    except KeyError:
        raise ValueError(
            f"unknown merge schedule {kind!r}; options: {sorted(SCHEDULES)}"
        ) from None
    sched = cls(shape, merge_fn)
    for lst in lists:
        sched.push(lst)
    return sched.finish()
