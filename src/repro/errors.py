"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything the library may raise with a single ``except`` clause
while still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class WeightError(ReproError, ValueError):
    """An edge weight is negative or not finite (NaN, ±inf)."""


class FormatError(ReproError, ValueError):
    """A sparse matrix's internal arrays violate the format invariants."""


class GridError(ReproError, ValueError):
    """A process grid cannot be formed (e.g. non-square process count)."""


class CommunicatorError(ReproError, RuntimeError):
    """Misuse of the simulated MPI layer (bad rank, root, or buffer)."""


class HostMemoryError(ReproError, MemoryError):
    """A simulated per-process host allocation exceeded its memory budget."""


class ConvergenceError(ReproError, RuntimeError):
    """MCL failed to converge within the configured iteration limit.

    When raised by :func:`repro.mcl.hipmcl.hipmcl` under ``strict=True``,
    the best-so-far result is attached as the ``partial`` attribute so no
    work is lost.
    """

    partial = None


class EstimationError(ReproError, ValueError):
    """Invalid parameters for the probabilistic memory estimator."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or belongs to another run."""


class InvariantViolation(ReproError, AssertionError):
    """A runtime invariant validator found a broken pipeline invariant."""


class ServiceError(ReproError, RuntimeError):
    """Misuse of the clustering service (bad job state transition, a lost
    lease, a malformed job spec, or a corrupt service directory)."""


class LocalityError(ReproError, ValueError):
    """Misuse of the warm start: a graph delta that references vertices
    outside the graph, adds a negative or non-finite weight or does not
    match the matrix, base labels of the wrong length, or a delta file
    line that does not parse."""


class InjectedFault:
    """Mixin marking an exception as raised by the fault injector.

    Recovery code distinguishes injected transients (charge the wasted
    attempt, then retry or degrade) from genuine logic errors (propagate):
    ``isinstance(exc, InjectedFault)``.
    """
