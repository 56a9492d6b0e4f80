"""Content-addressed result cache for the parallel sweep runner.

Layout: ``<root>/<aa>/<digest>.json`` for compact summaries and
``<root>/<aa>/<digest>.pkl`` for full ``SimulationResult`` payloads, where
``aa`` is the first two hex chars of the digest (one level of sharding
keeps directories small on big sweeps).  The digest is computed by
:meth:`repro.runner.spec.RunSpec.digest` over the spec *content* — see
that module for what is and is not part of the key.

Array-bearing summaries (``RunSpec(arrays=True)``) split in two: the
``.json`` keeps the scalars plus an ``__arrays__`` manifest, and the
per-flow/per-coflow columns live in an uncompressed ``<digest>.npz``
sidecar, read back whole with a plain ``np.load`` (a few KB per cell).

Writes are crash-safe: payloads go to a same-directory temp file that is
fsynced before the atomic rename, and the directory entry is fsynced
after it, so a power cut can leave a stale miss but never a
truncated-but-renamed entry (the corrupt-unlink path below then only
ever fires on real corruption).

Controls:

* ``REPRO_CACHE=0`` (env) or ``ResultCache(enabled=False)`` disables all
  reads and writes;
* ``REPRO_CACHE_DIR`` (env) or ``ResultCache(root=...)`` relocates the
  store (default ``.repro-cache/`` under the current directory);
* a corrupt or truncated cache file is treated as a miss and removed —
  the cache is an accelerator, never a source of errors.

Cached *full* results replay the pickled ``SimulationResult`` of the run
that produced them: metrics are identical by construction, but the
``flow_id``/``coflow_id`` values inside are those of the original run
(identifiers come from global counters and are deliberately not part of
the cache key).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.atomicio import fsync_dir, write_atomic
from repro.core.simulator import SimulationResult
from repro.runner.spec import ResultSummary, RunSpec

#: Environment switches.
ENV_CACHE = "REPRO_CACHE"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default store location (relative to the working directory).
DEFAULT_DIRNAME = ".repro-cache"


def cache_enabled_by_env() -> bool:
    return os.environ.get(ENV_CACHE, "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


def default_cache_root() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_DIRNAME)


def _load_sidecar(path: Path) -> Dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


class ResultCache:
    """Content-addressed store of summaries / full results, keyed by digest."""

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = cache_enabled_by_env() if enabled is None else bool(enabled)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    @classmethod
    def resolve(cls, cache) -> "ResultCache":
        """Coerce a user-facing ``cache=`` argument into a ResultCache.

        ``None`` → env-controlled default; ``True``/``False`` → forced
        on/off at the default root; a path → enabled at that root; a
        ResultCache passes through.
        """
        if isinstance(cache, cls):
            return cache
        if cache is None:
            return cls()
        if isinstance(cache, bool):
            return cls(enabled=cache and cache_enabled_by_env())
        return cls(root=cache)

    # -- paths ---------------------------------------------------------------
    def _path(self, digest: str, full: bool) -> Path:
        ext = "pkl" if full else "json"
        return self.root / digest[:2] / f"{digest}.{ext}"

    @staticmethod
    def _sidecar(path: Path) -> Path:
        return path.with_suffix(".npz")

    # -- lookup --------------------------------------------------------------
    def get(self, spec: RunSpec):
        """The cached payload for ``spec``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        digest = spec.digest()
        if digest is None:
            return None
        path = self._path(digest, spec.full)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            if spec.full:
                with path.open("rb") as fh:
                    payload = pickle.load(fh)
                if not isinstance(payload, SimulationResult):
                    raise ValueError("unexpected payload type")
            else:
                d = json.loads(path.read_text())
                manifest = d.pop("__arrays__", None)
                payload = ResultSummary.from_json(d)
                if manifest:
                    arrays = _load_sidecar(self._sidecar(path))
                    for name in manifest:
                        setattr(payload, name, arrays[name])
        except Exception:
            # Corrupt/truncated/stale-format entry (or an entry whose
            # array sidecar went missing): drop it whole, treat as miss.
            for victim in (path, self._sidecar(path)):
                try:
                    victim.unlink()
                except OSError:
                    pass
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    # -- store ---------------------------------------------------------------
    def put(self, spec: RunSpec, payload) -> bool:
        """Store a run's payload; returns whether anything was written."""
        if not self.enabled:
            return False
        digest = spec.digest()
        if digest is None:
            return False
        path = self._path(digest, spec.full)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if spec.full:
                write_atomic(
                    path,
                    lambda fh: pickle.dump(
                        payload, fh, protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
            else:
                arrays = {
                    name: np.asarray(getattr(payload, name))
                    for name in ResultSummary._ARRAYS
                    if getattr(payload, name) is not None
                }
                d = {
                    f.name: getattr(payload, f.name)
                    for f in dataclasses.fields(payload)
                    if f.name not in ResultSummary._ARRAYS
                }
                for name in ResultSummary._ARRAYS:
                    d[name] = None
                if arrays:
                    d["__arrays__"] = sorted(arrays)
                    # Sidecar lands (and is durable) before the json that
                    # references it: a crash in between leaves an orphan
                    # sidecar, never a dangling manifest.
                    write_atomic(
                        self._sidecar(path), lambda fh: np.savez(fh, **arrays)
                    )
                blob = json.dumps(d)
                write_atomic(
                    path, lambda fh: fh.write(blob.encode("utf-8"))
                )
            fsync_dir(path.parent)
        except Exception:
            return False
        return True

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def record_metrics(self, metrics) -> None:
        """Publish the hit/miss/corrupt counters into an obs
        :class:`~repro.obs.metrics.MetricsRegistry` (standard names
        ``cache.hits`` / ``cache.misses`` / ``cache.corrupt_dropped``)."""
        metrics.counter("cache.hits").inc(self.hits)
        metrics.counter("cache.misses").inc(self.misses)
        metrics.counter("cache.corrupt_dropped").inc(self.corrupt)
