"""Long-lived streaming scheduler service (``python -m repro serve``).

The paper's Swallow master is an *online* scheduler: coflows arrive in an
unbounded stream, and the master reacts at slice boundaries without ever
seeing the workload's end.  This package turns the batch engine into that
service:

* :mod:`repro.service.arrivals` — unbounded arrival sources: a seeded
  generator (steady / bursty / diurnal inter-arrival modes) and a JSONL
  file/stdin reader, both resumable from a compact cursor;
* :mod:`repro.service.driver` — :class:`StreamDriver`, the service loop:
  admit arrivals ahead of a moving horizon with bounded in-flight
  backpressure, tick the engine with ``run(until=...)``, and drain/spill
  retired results so memory stays bounded over an infinite trace;
* :mod:`repro.service.checkpoint` — single-file ``.npz`` checkpoints of
  the live engine state (columns + scheduler + arrival cursor) with
  bit-identical resume.

See ``docs/streaming.md`` for the lifecycle, checkpoint format and
backpressure semantics.
"""

from repro.service.arrivals import (
    ArrivalSource,
    JsonlSource,
    SourceSpec,
    SyntheticSource,
    coflow_from_json,
    coflow_to_json,
)
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    restore_driver,
    restore_simulator,
    save_checkpoint,
)
from repro.service.driver import StreamDriver, StreamStats

__all__ = [
    "ArrivalSource", "SyntheticSource", "JsonlSource", "SourceSpec",
    "coflow_from_json", "coflow_to_json",
    "StreamDriver", "StreamStats",
    "CHECKPOINT_SCHEMA", "save_checkpoint", "load_checkpoint",
    "restore_driver", "restore_simulator",
]
