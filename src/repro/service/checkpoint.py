"""Single-file checkpoints of a live streaming scheduler.

Format (``repro-checkpoint-v2``): one ``.npz`` holding

* every numeric engine column (``flow__*`` / ``cf__*`` keys, FVDF's
  priority class ``cf___cf_prio`` and served flag ``cf___cf_served``
  among them) plus the
  index arrays (active set, retired rows, closed slots), the columnar
  arrival-calendar entries (``cal_time``/``cal_seq``/``cal_slot``) and
  per-port byte/capacity vectors — stored as plain arrays, loadable with
  ``allow_pickle=False``;
* one ``__pickle__`` entry (a ``uint8`` blob) carrying the Python-object
  side: the scheduler instance, labels/deadlines, the
  :class:`~repro.analysis.harness.ExperimentSetup` and
  :class:`~repro.service.arrivals.SourceSpec`, the arrival-source
  cursor, the driver's streaming stats, and the global flow/coflow id
  watermarks.  The scheduler pickles without its bound observability
  bundle; restore binds the caller's.

Restore (:func:`restore_driver`) builds a fresh simulator from the
pickled setup + scheduler, loads the columns with
:meth:`~repro.core.simulator.SliceSimulator.import_state`, bumps the
global id counters past the watermarks, seeks a fresh arrival source to
the saved cursor and re-wraps everything in a
:class:`~repro.service.driver.StreamDriver`.  Continuing the restored
driver reproduces the uninterrupted run bit-for-bit (same arrivals, same
decision points, same results) because every random and temporal input
is part of the state.

Checkpoints use :mod:`pickle` for the object side — load them only from
paths you wrote yourself, like any pickle.
"""

from __future__ import annotations

import pickle
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.atomicio import fsync_dir, write_atomic
from repro.core.coflow import coflow_id_watermark, ensure_coflow_ids_above
from repro.core.flow import ensure_flow_ids_above, flow_id_watermark
from repro.errors import CheckpointError, ConfigurationError
from repro.service.arrivals import ArrivalSource, SourceSpec

__all__ = [
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "restore_simulator",
    "restore_driver",
]

#: Schema tag inside every checkpoint; bump on breaking layout changes.
CHECKPOINT_SCHEMA = "repro-checkpoint-v2"

#: export_state keys stored as top-level npz arrays (not in the blob).
#: ``cal_*`` are the columnar arrival-calendar entries (time/seq/slot).
_ARRAY_KEYS = (
    "active",
    "done_flows",
    "closed_slots",
    "ingress_bytes",
    "egress_bytes",
    "ingress_capacity",
    "egress_capacity",
    "cal_time",
    "cal_seq",
    "cal_slot",
)


def save_checkpoint(
    path,
    sim,
    *,
    setup=None,
    source: Optional[ArrivalSource] = None,
    source_spec: Optional[SourceSpec] = None,
    driver_state: Optional[Dict[str, Any]] = None,
) -> Path:
    """Snapshot a simulator (plus optional service context) to ``path``.

    ``setup`` is required to restore without caller-provided plumbing;
    ``source``/``source_spec`` record the arrival stream and its cursor.
    Pending capacity changes are part of the state: each carries its
    scheduling sequence number, so a restore applies them in the same
    order.  Raises :class:`ConfigurationError` for setups with background
    traffic — its closures are not checkpointable state.
    """
    if setup is not None and getattr(setup, "background", None) is not None:
        raise ConfigurationError(
            "cannot checkpoint a setup with background traffic"
        )
    state = sim.export_state()
    payload: Dict[str, np.ndarray] = {}
    for name, col in state["flow_cols"].items():
        payload[f"flow__{name}"] = col
    for name, col in state["cf_cols"].items():
        payload[f"cf__{name}"] = col
    for key in _ARRAY_KEYS:
        payload[key] = np.asarray(state[key])
    blob = {
        "schema": CHECKPOINT_SCHEMA,
        "slice_len": state["slice_len"],
        "k": state["k"],
        "started": state["started"],
        "decision_points": state["decision_points"],
        "resume_kinds": state["resume_kinds"],
        "held": state["held"],
        "done_total": state["done_total"],
        "n": state["n"],
        "n_cf": state["n_cf"],
        "cancelled": state["cancelled"],
        "cap_events": state["cap_events"],
        "cf_labels": state["cf_labels"],
        "cf_deadlines": state["cf_deadlines"],
        "scheduler": state["scheduler"],
        "setup": setup,
        "source_spec": source_spec,
        "source_state": source.state() if source is not None else None,
        "driver_state": driver_state,
        "flow_id_watermark": flow_id_watermark(),
        "coflow_id_watermark": coflow_id_watermark(),
    }
    payload["__pickle__"] = np.frombuffer(
        pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Temp file + fsync + rename: a crash mid-write (periodic checkpoints
    # reuse one path) must leave the previous checkpoint intact.  The
    # open handle also keeps numpy from appending ``.npz`` to the name.
    write_atomic(path, lambda fh: np.savez_compressed(fh, **payload))
    fsync_dir(path.parent)
    return path


def _check_layout(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """The checks made before the blob is unpickled: it is there, and the
    engine columns of each table have one length."""
    if "__pickle__" not in arrays:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_SCHEMA} checkpoint: "
            f"no __pickle__ entry"
        )
    for prefix in ("flow__", "cf__"):
        lengths = {
            key: np.shape(arr)[:1] for key, arr in arrays.items()
            if key.startswith(prefix)
        }
        if len(set(lengths.values())) > 1:
            raise CheckpointError(
                f"checkpoint {path} is inconsistent: {prefix}* columns "
                f"have unequal lengths {lengths}"
            )


def _check_counts(path: Path, arrays: Dict[str, np.ndarray], n: int,
                  n_cf: int) -> None:
    """The checks made against the blob's row counts: every engine column
    has ``n`` (flow) or ``n_cf`` (coflow) rows, and every index array
    points inside its table."""
    for prefix, rows in (("flow__", n), ("cf__", n_cf)):
        for key, arr in arrays.items():
            if key.startswith(prefix) and np.shape(arr)[:1] != (rows,):
                raise CheckpointError(
                    f"checkpoint {path} is inconsistent: {key} has shape "
                    f"{np.shape(arr)}, the state has {rows} rows"
                )
    for key, rows, table in (
        ("active", n, "n"), ("done_flows", n, "n"),
        ("closed_slots", n_cf, "n_cf"), ("cal_slot", n_cf, "n_cf"),
    ):
        idx = arrays.get(key)
        if idx is None:
            raise CheckpointError(
                f"checkpoint {path} is inconsistent: no {key} entry"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= rows):
            raise CheckpointError(
                f"checkpoint {path} is inconsistent: {key} indexes outside "
                f"[0, {table}={rows})"
            )


def load_checkpoint(path) -> Dict[str, Any]:
    """Read a checkpoint into a dict: the ``import_state`` payload under
    ``"state"`` plus the service context (setup, source spec/cursor,
    driver state, id watermarks, schema) at the top level.

    Raises :class:`CheckpointError` naming ``path`` when the file cannot
    be read as a checkpoint (truncated or corrupt archive), has no
    ``__pickle__`` entry, has engine columns of unequal lengths or of
    other lengths than the blob's ``n``/``n_cf``, or index arrays
    (``active``, ``done_flows``, ``closed_slots``, ``cal_slot``) pointing
    outside their table.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key].copy() for key in data.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    _check_layout(path, arrays)
    blob = pickle.loads(arrays.pop("__pickle__").tobytes())
    if blob.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigurationError(
            f"unsupported checkpoint schema {blob.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    _check_counts(path, arrays, int(blob["n"]), int(blob["n_cf"]))
    state = {
        "slice_len": blob["slice_len"],
        "k": blob["k"],
        "started": blob["started"],
        "decision_points": blob["decision_points"],
        "resume_kinds": blob["resume_kinds"],
        "held": blob["held"],
        "done_total": blob["done_total"],
        "n": blob["n"],
        "n_cf": blob["n_cf"],
        "cancelled": blob["cancelled"],
        "cap_events": blob["cap_events"],
        "cf_labels": blob["cf_labels"],
        "cf_deadlines": blob["cf_deadlines"],
        "scheduler": blob["scheduler"],
        "flow_cols": {},
        "cf_cols": {},
    }
    for key, arr in arrays.items():
        if key.startswith("flow__"):
            state["flow_cols"][key[len("flow__"):]] = arr
        elif key.startswith("cf__"):
            state["cf_cols"][key[len("cf__"):]] = arr
        else:
            state[key] = arr
    return {
        "schema": blob["schema"],
        "state": state,
        "setup": blob["setup"],
        "source_spec": blob["source_spec"],
        "source_state": blob["source_state"],
        "driver_state": blob["driver_state"],
        "flow_id_watermark": blob["flow_id_watermark"],
        "coflow_id_watermark": blob["coflow_id_watermark"],
    }


def restore_simulator(data: Dict[str, Any], obs=None):
    """Fresh simulator from a :func:`load_checkpoint` payload."""
    setup = data["setup"]
    if setup is None:
        raise ConfigurationError(
            "checkpoint was saved without its ExperimentSetup; "
            "rebuild the simulator manually and use import_state"
        )
    sim = setup.build_simulator(data["state"]["scheduler"], obs=obs)
    sim.import_state(data["state"])
    ensure_flow_ids_above(data["flow_id_watermark"] - 1)
    ensure_coflow_ids_above(data["coflow_id_watermark"] - 1)
    return sim


def restore_driver(
    path,
    *,
    obs=None,
    source: Optional[ArrivalSource] = None,
    spill_dir=None,
    keep_shards: bool = True,
    checkpoint_path=None,
    checkpoint_every_ticks: Optional[int] = None,
):
    """Rebuild a :class:`~repro.service.driver.StreamDriver` from a
    checkpoint written by :meth:`StreamDriver.checkpoint`.

    A fresh ``source`` may be supplied for streams that cannot be rebuilt
    from a spec (e.g. stdin); it is seeked to the saved cursor when one
    was recorded.  Output plumbing (``spill_dir``, ``keep_shards``, new
    checkpoint settings) is the caller's choice — it is not part of the
    saved state.
    """
    from repro.service.driver import StreamDriver, StreamStats

    data = load_checkpoint(path)
    drv = data["driver_state"]
    if drv is None:
        raise ConfigurationError(
            f"{path} is a bare simulator checkpoint, not a service "
            "checkpoint; use load_checkpoint/restore_simulator"
        )
    sim = restore_simulator(data, obs=obs)
    if source is None:
        spec = data["source_spec"]
        if spec is None:
            raise ConfigurationError(
                "checkpoint has no SourceSpec; pass source= explicitly"
            )
        source = spec.build()
    if data["source_state"] is not None:
        source.seek(data["source_state"])
    driver = StreamDriver(
        sim,
        source,
        tick=drv["tick"],
        max_in_flight=drv["max_in_flight"],
        drain_every=drv["drain_every"],
        spill_dir=spill_dir,
        keep_shards=keep_shards,
        checkpoint_path=checkpoint_path,
        checkpoint_every_ticks=checkpoint_every_ticks,
        setup=data["setup"],
        source_spec=data["source_spec"],
        policy=drv["policy"],
    )
    driver.stats = StreamStats(
        **{name: drv["stats"][name] for name in StreamStats.__dataclass_fields__}
    )
    driver._shard_seq = int(drv["shard_seq"])
    return driver
