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
    """A simulator state cannot be faithfully restored.

    Raised by :func:`repro.service.checkpoint.load_checkpoint` for a file
    that is not a readable checkpoint (truncated or corrupt, no pickled
    object side, engine columns of unequal lengths; the message names
    the path), and by
    :meth:`~repro.core.simulator.SliceSimulator.import_state` for a state
    that lacks an engine column.
    """


class ProtocolError(ReproError):
    """A Table IV call broke the API's protocol: an unknown ref or block,
    a call out of order, or more blocks pushed than the coflow has flows."""
