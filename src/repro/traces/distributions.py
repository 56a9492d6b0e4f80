"""Flow-size distributions matching the paper's Fig. 1 heavy tail.

Fig. 1 reports two facts about datacenter flows:

* (a) ~89.5% of flows are smaller than 10 GB, with the mass scattered over
  [10 MB, 10 GB];
* (b) more than 93% of traffic *bytes* come from flows larger than 10 GB.

A truncated Pareto reproduces both; :func:`fig1_distribution` is calibrated
to them and tested against them.  For scheduling experiments the paper
notes its own traces are much smaller ("dozens of kilobytes or several
megabytes"), which :func:`spark_flow_sizes` models as a log-normal body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.units import GB, KB, MB, TB


class SizeDistribution:
    """Base: something that samples positive flow sizes in bytes."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample(rng, n)


@dataclass
class TruncatedPareto(SizeDistribution):
    """Pareto(Type I) with scale ``xm``, shape ``alpha``, truncated at ``cap``.

    Sampled by inverse-CDF restricted to ``[xm, cap]``, so every draw lies
    in range (no rejection loop).
    """

    xm: float
    alpha: float
    cap: float

    def __post_init__(self) -> None:
        if self.xm <= 0 or self.alpha <= 0 or self.cap <= self.xm:
            raise ConfigurationError(
                f"need 0 < xm < cap and alpha > 0; got xm={self.xm}, "
                f"alpha={self.alpha}, cap={self.cap}"
            )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # CDF on [xm, cap]: F(x) = (1 - (xm/x)^a) / (1 - (xm/cap)^a)
        f_cap = 1.0 - (self.xm / self.cap) ** self.alpha
        u = rng.random(n) * f_cap
        return self.xm * (1.0 - u) ** (-1.0 / self.alpha)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        f_cap = 1.0 - (self.xm / self.cap) ** self.alpha
        raw = 1.0 - (self.xm / np.clip(x, self.xm, self.cap)) ** self.alpha
        out = raw / f_cap
        out = np.where(x < self.xm, 0.0, out)
        return np.where(x >= self.cap, 1.0, out)


@dataclass
class LogNormalSizes(SizeDistribution):
    """Log-normal flow sizes with an interpretable median, optionally clipped."""

    median: float
    sigma: float = 1.5
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma <= 0:
            raise ConfigurationError("median and sigma must be positive")
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ConfigurationError("need lo < hi")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.lognormal(mean=np.log(self.median), sigma=self.sigma, size=n)
        if self.lo is not None or self.hi is not None:
            x = np.clip(x, self.lo, self.hi)
        return x


@dataclass
class MixtureSizes(SizeDistribution):
    """Weighted mixture of size distributions (body + tail compositions)."""

    components: Sequence[SizeDistribution]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ConfigurationError("components and weights must align and be non-empty")
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ConfigurationError("weights must be non-negative and sum > 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        w = np.asarray(self.weights, dtype=np.float64)
        w = w / w.sum()
        choice = rng.choice(len(self.components), size=n, p=w)
        out = np.empty(n)
        for i, comp in enumerate(self.components):
            mask = choice == i
            k = int(mask.sum())
            if k:
                out[mask] = comp.sample(rng, k)
        return out


@dataclass
class ConstantSize(SizeDistribution):
    """Degenerate distribution (useful in tests and controlled sweeps)."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ConfigurationError("value must be positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)


def fig1_distribution() -> TruncatedPareto:
    """The Fig. 1 heavy tail: ~89.5% of flows < 10 GB, >93% of bytes > 10 GB.

    Calibration: ``P(X > 10 GB) = (xm / 10 GB)^alpha = 0.105`` with
    ``xm = 10 MB`` gives ``alpha = log(0.105)/log(1e-3) ≈ 0.326``; the cap
    at 100 TB keeps the (otherwise infinite-mean) byte mass finite while
    leaving >93% of bytes above 10 GB.
    """
    alpha = np.log(0.105) / np.log(10 * MB / (10 * GB))
    return TruncatedPareto(xm=10 * MB, alpha=float(alpha), cap=100 * TB)


def spark_flow_sizes() -> LogNormalSizes:
    """Shuffle-block sizes as in the paper's own traces: tens of KB–few MB."""
    return LogNormalSizes(median=200 * KB, sigma=1.3, lo=1 * KB, hi=64 * MB)


def byte_share_above(sizes: np.ndarray, threshold: float) -> float:
    """Fraction of total bytes carried by flows larger than ``threshold``."""
    sizes = np.asarray(sizes, dtype=np.float64)
    total = sizes.sum()
    if total <= 0:
        return 0.0
    return float(sizes[sizes > threshold].sum() / total)
