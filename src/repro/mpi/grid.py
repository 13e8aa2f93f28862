"""The √P × √P process grid of 2-D Sparse SUMMA.

HipMCL requires a perfect-square process count (the paper even
under-utilizes GPUs in §VII-B to honor it); :class:`ProcessGrid` owns the
(row, col) → rank mapping and the block index ranges of a conformally
partitioned matrix dimension.

The split-3D grid reuses the same P ranks: a valid 3D shape factors
``P = c · q₃²`` with ``c = r²``, ``r | q`` and ``q₃ = q / r``, so every
3D cell is addressable as ``layer · q₃² + I · q₃ + J`` inside the same
rank space.  :func:`grid3d_shape` validates/chooses the factorization and
:func:`resolve_layers` parses a ``--layers`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GridError

#: Recognized values of the ``grid`` knob.
GRID_CHOICES = ("2d", "3d")


def is_perfect_square(p: int) -> bool:
    """True when ``p`` is a positive perfect square."""
    if p <= 0:
        return False
    q = math.isqrt(p)
    return q * q == p


@dataclass(frozen=True)
class ProcessGrid:
    """A square logical grid of ``q*q`` virtual MPI processes."""

    q: int  # grid side, √P

    def __post_init__(self):
        if self.q <= 0:
            raise GridError(f"grid side must be positive, got {self.q}")

    @classmethod
    def for_processes(cls, p: int) -> "ProcessGrid":
        """Build the grid for ``p`` processes; ``p`` must be a square."""
        if not is_perfect_square(p):
            raise GridError(
                f"HipMCL needs a perfect-square process count, got {p}"
            )
        return cls(math.isqrt(p))

    @property
    def size(self) -> int:
        """Total process count P."""
        return self.q * self.q

    def rank_of(self, i: int, j: int) -> int:
        """Row-major rank of grid coordinate (i, j)."""
        if not (0 <= i < self.q and 0 <= j < self.q):
            raise GridError(f"coordinate ({i}, {j}) outside {self.q}x{self.q} grid")
        return i * self.q + j

    def col_members(self, j: int) -> list[int]:
        """Ranks of grid column ``j`` (a B-broadcast subcommunicator)."""
        return [self.rank_of(i, j) for i in range(self.q)]

    def block_bounds(self, n: int, index: int) -> tuple[int, int]:
        """Half-open global index range of block ``index`` along a
        dimension of extent ``n`` (CombBLAS-style near-even split: the
        first ``n % q`` blocks get one extra element)."""
        if not (0 <= index < self.q):
            raise GridError(f"block index {index} outside [0, {self.q})")
        base, extra = divmod(n, self.q)
        lo = index * base + min(index, extra)
        hi = lo + base + (1 if index < extra else 0)
        return lo, hi


def resolve_layers(value: int | str | None) -> int:
    """The replication factor a ``--layers`` argument asks for.

    Returns ``0`` for "auto" (pick the largest valid ``c = r²`` with
    ``r² <= q``), also when ``value`` is None or empty; a positive value
    is validated later against the actual process count by
    :func:`grid3d_shape`.
    """
    if value is None or value == "" or value == "auto":
        return 0
    try:
        layers = int(value)
    except (TypeError, ValueError):
        raise GridError(
            f"layers must be an integer or 'auto', got {value!r}"
        ) from None
    if layers < 0:
        raise GridError(f"layers must be non-negative, got {layers}")
    return layers


def grid3d_shape(processes: int, layers: int = 0) -> tuple[int, int, int]:
    """Validate/choose the split-3D factorization of ``processes`` ranks.

    Returns ``(c, r, q3)`` with ``c = r²`` layers of ``q3 × q3`` cells,
    ``r | q`` and ``q3 = q / r``, so ``P = c · q3²`` always holds.
    ``layers == 0`` means auto: the largest ``r`` dividing ``q`` with
    ``r² <= q`` (replication never exceeding the layer-grid area).
    """
    if not is_perfect_square(processes):
        raise GridError(
            f"HipMCL needs a perfect-square process count, got {processes}"
        )
    q = math.isqrt(processes)
    if layers == 0:
        r = max(
            d for d in range(1, q + 1) if q % d == 0 and d * d <= q
        )
        return r * r, r, q // r
    r = math.isqrt(layers)
    if r * r != layers or q % r != 0:
        raise GridError(
            f"invalid 3D shape: layers={layers} with P={processes} — a "
            f"valid shape needs P = c·q3^2 with c = r^2 and r | sqrt(P)="
            f"{q} (try one of "
            f"{sorted({d * d for d in range(1, q + 1) if q % d == 0})})"
        )
    return layers, r, q // r
