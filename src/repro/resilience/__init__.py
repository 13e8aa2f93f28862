"""Resilience layer: fault injection, recovery policies, checkpoint/restart.

The subsystem has four parts, each usable on its own:

* :mod:`repro.resilience.faults` — deterministic seeded fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`) into the simulated MPI,
  SpGEMM engine (GPU, CPU-hash and merge sites), and estimator layers;
* :mod:`repro.resilience.policy` — recovery behavior
  (:class:`RetryPolicy` / :class:`ResiliencePolicy`): collective retries
  with backoff, the kernel degradation ladder, overrun phase-splitting,
  estimator fallback, invariant validation modes;
* :mod:`repro.resilience.checkpoint` — checksum-validated per-iteration
  checkpointing and the ``resume_from=`` entry point of
  :func:`repro.mcl.hipmcl.hipmcl`;
* :mod:`repro.resilience.validators` — runtime invariant checks (column
  stochasticity, CSC format, chaos trend) in warn/strict modes.

The contract every piece honors: recovery changes *when* things happen on
the simulated machine, never *what* is computed — see
:mod:`repro.resilience.equivalence` and ``docs/resilience.md``.
"""

from .equivalence import TRAJECTORY_FIELDS, divergence, trajectory
from .faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedCommFailure,
    InjectedEstimationError,
    as_injector,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    MclCheckpoint,
    checkpoint_path,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .policy import DEFAULT_RESILIENCE, ResiliencePolicy, RetryPolicy
from .validators import InvariantChecker, InvariantWarning

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultInjector",
    "InjectedCommFailure",
    "InjectedEstimationError",
    "as_injector",
    "RetryPolicy",
    "ResiliencePolicy",
    "DEFAULT_RESILIENCE",
    "InvariantChecker",
    "InvariantWarning",
    "CHECKPOINT_VERSION",
    "MclCheckpoint",
    "checkpoint_path",
    "config_fingerprint",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "TRAJECTORY_FIELDS",
    "trajectory",
    "divergence",
]
