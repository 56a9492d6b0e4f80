"""Job model: map → shuffle → reduce → result, as in the paper's Fig. 7(a).

A job reads ``input_bytes``, runs map tasks (CPU-bound), shuffles the
intermediate data as one coflow (network-bound — where Swallow acts), runs
reduce tasks, and writes its output in the *result* stage ("save output as
Hadoop files").  Stage durations and per-stage GC times are recorded so the
per-stage speedups of Fig. 7(a) and the GC table (Table VIII) can be
reproduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.traces.spark import AppProfile

_job_ids = itertools.count()


@dataclass
class JobSpec:
    """Static description of one job.

    Parameters
    ----------
    app:
        Table I application profile (sets shuffle compressibility).
    input_bytes:
        Bytes read by the map stage (drives map duration).
    num_mappers / num_reducers:
        Task counts; also the shuffle coflow's dimensions.
    shuffle_scale:
        Multiplier on the app's per-block shuffle size (workload scales).
    output_fraction:
        Result-stage bytes as a fraction of input bytes.
    arrival:
        Job submission time, seconds.
    rounds:
        Iterations of the (shuffle → reduce) phase — 1 for batch jobs,
        >1 for iterative applications (pagerank, nweight): each round
        shuffles a fresh coflow of the job's shuffle volume.
    """

    app: AppProfile
    input_bytes: float
    num_mappers: int = 4
    num_reducers: int = 4
    shuffle_scale: float = 1.0
    output_fraction: float = 0.5
    arrival: float = 0.0
    rounds: int = 1
    label: str = ""
    job_id: int = field(default_factory=lambda: next(_job_ids))

    def __post_init__(self) -> None:
        if self.input_bytes <= 0:
            raise ConfigurationError("input_bytes must be positive")
        if self.num_mappers < 1 or self.num_reducers < 1:
            raise ConfigurationError("need at least one mapper and one reducer")
        if self.shuffle_scale <= 0:
            raise ConfigurationError("shuffle_scale must be positive")
        if not 0 <= self.output_fraction <= 10:
            raise ConfigurationError("output_fraction out of sane range")
        if self.arrival < 0:
            raise ConfigurationError("arrival must be >= 0")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if not self.label:
            self.label = f"{self.app.name}-{self.job_id}"

    @property
    def shuffle_bytes_per_round(self) -> float:
        """Uncompressed shuffle volume of one iteration."""
        return (
            self.num_mappers
            * self.num_reducers
            * self.app.block_uncompressed
            * self.shuffle_scale
        )

    @property
    def shuffle_bytes(self) -> float:
        """Total uncompressed shuffle volume across all rounds."""
        return self.shuffle_bytes_per_round * self.rounds

    @property
    def output_bytes(self) -> float:
        return self.input_bytes * self.output_fraction


@dataclass
class StageRecord:
    """Observed start/end of one stage."""

    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class JobResult:
    """Everything measured about one finished job."""

    spec: JobSpec
    map_stage: StageRecord
    shuffle_stage: StageRecord
    reduce_stage: StageRecord
    result_stage: StageRecord
    gc_map: float
    gc_reduce: float
    shuffle_bytes_sent: float
    failed: bool = False
    map_attempts: int = 0
    reduce_attempts: int = 0

    @property
    def jct(self) -> float:
        """Job completion time, submission to result-stage end."""
        return self.result_stage.end - self.spec.arrival

    @property
    def shuffle_traffic_saved(self) -> float:
        return self.spec.shuffle_bytes - self.shuffle_bytes_sent
