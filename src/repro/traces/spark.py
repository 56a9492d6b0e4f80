"""Spark-shuffle workloads with the paper's per-application profiles.

Table I of the paper measured the intermediate data of one shuffle block for
eleven HiBench applications, compressed and uncompressed.  Those numbers
are reproduced verbatim in :data:`TABLE_I`; coflows built from a profile
carry the application's compression ratio as each flow's
``ratio_override``, so the compression-aware experiments (Tables I/VII,
Fig. 7) see the paper's per-app compressibility rather than the generic
codec curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AppProfile:
    """One Table I row: per-block shuffle bytes for a HiBench application."""

    name: str
    block_compressed: float  # bytes after compression
    block_uncompressed: float  # raw shuffle-block bytes

    def __post_init__(self) -> None:
        if self.block_compressed <= 0 or self.block_uncompressed <= 0:
            raise ConfigurationError(f"{self.name}: block sizes must be positive")
        if self.block_compressed >= self.block_uncompressed:
            raise ConfigurationError(f"{self.name}: compressed must be < uncompressed")

    @property
    def ratio(self) -> float:
        """Compression ratio (compressed / uncompressed), as in Table I."""
        return self.block_compressed / self.block_uncompressed


#: Table I of the paper, verbatim (bytes of one shuffle block).
TABLE_I: Dict[str, AppProfile] = {
    p.name: p
    for p in [
        AppProfile("wordcount", 246_497, 440_872),
        AppProfile("sort", 757_621_572, 3_034_919_593),
        AppProfile("terasort", 8_713_992_886, 31_200_010_752),
        AppProfile("dfsio", 354_606, 1_868_846),
        AppProfile("logistic-regression", 5_077_091, 6_757_608),
        AppProfile("lda", 515_454, 754_677),
        AppProfile("svm", 3_368, 7_023),
        AppProfile("bayes", 2_153_182, 8_176_706),
        AppProfile("random-forest", 815_832, 1_194_464),
        AppProfile("pagerank", 27_741_768, 65_413_648),
        AppProfile("nweight", 3_814_494, 13_168_667),
    ]
}


def get_profile(name: str) -> AppProfile:
    try:
        return TABLE_I[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown application {name!r}; available: {sorted(TABLE_I)}"
        ) from None


def shuffle_coflow(
    app: AppProfile,
    mapper_ports: Sequence[int],
    reducer_ports: Sequence[int],
    *,
    scale: float = 1.0,
    arrival: float = 0.0,
    label: Optional[str] = None,
) -> Coflow:
    """Build the shuffle coflow of one (app, stage): mappers × reducers flows.

    Each mapper→reducer port pair carries one shuffle block of the app's
    uncompressed size × ``scale``, tagged with the app's Table I
    compression ratio as its ``ratio_override``; when Swallow compresses
    the shuffle, its traffic drops by exactly the paper's per-app factor.
    """
    if len(mapper_ports) == 0 or len(reducer_ports) == 0:
        raise ConfigurationError("need at least one mapper and one reducer port")
    size = app.block_uncompressed * scale
    flows = [
        Flow(src=int(m), dst=int(r), size=size, ratio_override=app.ratio)
        for m in mapper_ports
        for r in reducer_ports
    ]
    return Coflow(flows, arrival=arrival, label=label or f"{app.name}-shuffle")
