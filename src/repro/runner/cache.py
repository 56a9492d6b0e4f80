"""Content-addressed result cache for the parallel sweep runner.

Layout: ``<root>/<aa>/<digest>.pkl`` — one pickle per entry, holding a
:class:`~repro.runner.spec.ResultSummary` (with or without its arrays)
or, for ``full`` specs, the whole ``SimulationResult``.  ``aa`` is the
first two hex chars of the digest (one level of sharding keeps
directories small on big sweeps).  The digest is computed by
:meth:`repro.runner.spec.RunSpec.digest` over the spec *content* — see
that module for what is and is not part of the key.  Entries are
pickles, so a store must hold only files this program wrote.

Writes are atomic, not durable: payloads go to a same-directory temp
file and an atomic rename (:func:`~repro.atomicio.replace_atomic`), so a
reader never sees a partial file.  Nothing is fsynced: a power cut can
lose recent entries or truncate one, which the corrupt-unlink path below
then drops as a miss.

Controls:

* ``REPRO_CACHE=0`` (env) or ``ResultCache(enabled=False)`` disables all
  reads and writes;
* ``REPRO_CACHE_DIR`` (env) or ``ResultCache(root=...)`` relocates the
  store (default ``.repro-cache/`` under the current directory);
* a corrupt or truncated cache file, or one holding the wrong payload
  type, is treated as a miss and removed — the cache is an accelerator,
  never a source of errors.

Cached *full* results replay the pickled ``SimulationResult`` of the run
that produced them: metrics are identical by construction, but the
``flow_id``/``coflow_id`` values inside are those of the original run
(identifiers come from global counters and are deliberately not part of
the cache key).
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional, Union

from repro.atomicio import replace_atomic
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

        ``None`` → env-controlled default; ``False`` → off; ``True`` → on
        at the default root unless ``REPRO_CACHE=0``, which still wins;
        a path → enabled at that root; a ResultCache passes through.
        """
        if isinstance(cache, cls):
            return cache
        if cache is None:
            return cls()
        if isinstance(cache, bool):
            return cls(enabled=cache and cache_enabled_by_env())
        return cls(root=cache)

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, spec: RunSpec):
        """The cached payload for ``spec``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        digest = spec.digest()
        if digest is None:
            return None
        path = self._path(digest)
        if not path.is_file():
            self.misses += 1
            return None
        kind = SimulationResult if spec.full else ResultSummary
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            if not isinstance(payload, kind):
                raise TypeError(f"expected {kind.__name__}")
        except Exception:
            # Corrupt/truncated/wrong-type entry: drop it, treat as miss.
            try:
                path.unlink()
            except OSError:
                pass
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, spec: RunSpec, payload) -> bool:
        """Store a run's payload; returns whether anything was written."""
        if not self.enabled:
            return False
        digest = spec.digest()
        if digest is None:
            return False
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            replace_atomic(
                path,
                lambda fh: pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL),
            )
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
