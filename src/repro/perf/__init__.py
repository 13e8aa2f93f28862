"""Vectorized kernels for the numeric hot loops.

The simulator has two kinds of code: *modeled* kernels, whose structure
and operation counts feed the machine model (heap/hash op counts, merge
events, prune protocol traffic), and *numeric* code, which only has to
produce the right numbers.  This package holds the second kind —
dense-scatter ESC, batched k-way merge, partition-based top-k and label
propagation components.
Each kernel is the only implementation of its operation; where it chooses
between two strategies (dense scatter vs key sort, partition vs rank) it
does so from the size of its input, and every accumulation runs in the
library's canonical left-to-right element order, which is what keeps the
results bit-identical to the heap and hash kernels and to the tests'
independent oracles (see ``docs/performance.md``).
"""

__all__ = ["esc", "merge", "topk", "components"]
