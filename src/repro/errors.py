"""Exception hierarchy for the :mod:`repro` library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid parameters."""


class SchedulingError(ReproError):
    """A scheduler returned an infeasible or malformed allocation."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state.

    The classic instance: every active flow has zero rate, no compression is
    running and no arrival is pending, so simulated time can never advance.
    """


class TraceFormatError(ReproError):
    """A workload trace file could not be parsed."""


class CheckpointError(ReproError):
    """A simulator state cannot be faithfully checkpointed or restored.

    Raised by :func:`repro.service.checkpoint.save_checkpoint` instead of
    silently writing a snapshot whose restore would diverge from the
    uninterrupted run (e.g. pending scheduled capacity events — the
    ``repro-checkpoint-v2`` format does not guarantee their round trip),
    and by :func:`repro.service.checkpoint.load_checkpoint` for a file
    that is not a readable checkpoint (truncated or corrupt, no pickled
    object side, engine columns of unequal lengths); the message names
    the path.
    """


class ProtocolError(ReproError):
    """The Swallow master/worker message protocol was violated."""
