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
  bit-identical resume;
* :mod:`repro.service.serving` — :func:`serve`, one ``repro serve`` run:
  build or restore the driver, run it, write its checkpoint and report.

See ``docs/streaming.md`` for the lifecycle, checkpoint format and
backpressure semantics.  Names load on first use (:mod:`repro._lazy`),
so a driver that never checkpoints never compiles the checkpoint code.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrivals": (
        "ArrivalSource", "SyntheticSource", "JsonlSource", "SourceSpec",
        "coflow_from_json", "coflow_to_json",
    ),
    ".driver": ("StreamDriver", "StreamStats"),
    ".checkpoint": (
        "CHECKPOINT_SCHEMA", "save_checkpoint", "load_checkpoint",
        "restore_driver", "restore_simulator",
    ),
    ".serving": ("serve",),
})

__all__ = list(_EXPORTS)
