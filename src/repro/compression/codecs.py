"""Codec registry parameterised with the paper's measurements (Table II).

The scheduler consumes exactly two numbers per codec: the compression speed
``R`` (bytes of *input* consumed per second per core) and the compression
ratio ``xi`` (compressed size / original size; smaller is better).  Table II
of the paper measured these for five codecs; we inject those values so the
FVDF decision rule ``R * (1 - xi) > B`` (Eq. 3) behaves as in the paper.

Decompression speed is carried for completeness but — as the paper notes —
omitted from completion-time accounting because decompression is several
times faster than compression and overlaps with receiving.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import MB

_MBs = MB  # 1 MB/s in bytes/s


@dataclass(frozen=True)
class Codec:
    """A compression algorithm's scheduling-relevant parameters.

    Attributes
    ----------
    name:
        Registry key (lower case).
    speed:
        Compression throughput, bytes of input per second per core.
    decompression_speed:
        Decompression throughput, bytes of output per second per core.
    ratio:
        Reference compression ratio (compressed/original) at large flow
        sizes.  The effective ratio for a given flow size comes from
        :class:`repro.compression.model.SizeDependentRatio`.
    """

    name: str
    speed: float
    decompression_speed: float
    ratio: float

    def __post_init__(self) -> None:
        if self.speed <= 0 or self.decompression_speed <= 0:
            raise ConfigurationError(f"codec {self.name}: speeds must be positive")
        if not 0 < self.ratio < 1:
            raise ConfigurationError(
                f"codec {self.name}: ratio must lie in (0, 1), got {self.ratio}"
            )

    @property
    def disposal_speed(self) -> float:
        """Net volume drain per second of compression: ``R * (1 - xi)`` (Eq. 1)."""
        return self.speed * (1.0 - self.ratio)

    def beats_bandwidth(self, bandwidth: float) -> bool:
        """Eq. 3: compression outruns transmission iff ``R (1 - xi) > B``."""
        return self.disposal_speed > bandwidth

    def with_ratio(self, ratio: float) -> "Codec":
        """A copy of this codec with a different reference ratio."""
        return replace(self, ratio=ratio)


#: Table II of the paper, verbatim (speeds per core; ratios on the paper's
#: reference corpus).
TABLE_II: Dict[str, Codec] = {
    "lz4": Codec("lz4", speed=785 * _MBs, decompression_speed=2601 * _MBs, ratio=0.6215),
    "lzo": Codec("lzo", speed=424 * _MBs, decompression_speed=560 * _MBs, ratio=0.5030),
    "snappy": Codec("snappy", speed=327 * _MBs, decompression_speed=1075 * _MBs, ratio=0.4819),
    "lzf": Codec("lzf", speed=251 * _MBs, decompression_speed=565 * _MBs, ratio=0.4814),
    "zstd": Codec("zstd", speed=330 * _MBs, decompression_speed=930 * _MBs, ratio=0.3477),
}

#: The paper's default (`swallow.smartCompress` ships LZ4 by default).
DEFAULT_CODEC_NAME = "lz4"


def get_codec(name: str) -> Codec:
    """Look up a codec by name (case-insensitive).

    Raises
    ------
    ConfigurationError
        For unknown codec names, listing the available ones.
    """
    key = name.lower()
    # Tolerate the paper's own typo ("Sanppy") and common aliases.
    aliases = {"sanppy": "snappy", "zstandard": "zstd", "lz-4": "lz4"}
    key = aliases.get(key, key)
    try:
        return TABLE_II[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {sorted(TABLE_II)}"
        ) from None


def default_codec() -> Codec:
    return TABLE_II[DEFAULT_CODEC_NAME]


def register_codec(codec: Codec, overwrite: bool = False) -> None:
    """Add a custom codec to the registry (e.g. calibrated from zlib)."""
    if codec.name in TABLE_II and not overwrite:
        raise ConfigurationError(f"codec {codec.name!r} already registered")
    TABLE_II[codec.name] = codec
