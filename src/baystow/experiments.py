"""Parameter sweeps: container count, generation count, and population size.

A sweep runs the engine over a list of values for one knob, several
repetitions per value, and reports per-value means of the initial best
fitness, the final best fitness, and the elapsed time. The container-count
sweep generates a fresh instance per (value, repetition) because the
instance itself depends on the swept value; the other two sweeps reuse one
instance per repetition index across all values so that points differ only
in the swept knob. Every run's seed is derived from (base seed, swept value,
repetition), so results do not depend on execution order and a sweep can be
reproduced run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._rng import derive_seed, is_seed
from .bay import BayDims
from .errors import InvalidSpec
from .ga import GaConfig, RunStats, run
from .instances import GeneratorSpec, Instance, generate_instance

SWEEP_KINDS = ("containers", "generations", "population")

# Domain separators so instance seeds and run seeds never collide.
_INSTANCE_STREAM = 0
_RUN_STREAM = 1


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which knob, which values, and the fixed context around it."""

    kind: str
    values: tuple[int, ...]
    config: GaConfig = GaConfig()
    n_containers: int | None = None
    dims: BayDims | None = None
    date_min: float = 1.0
    date_max: float = 100.0
    reps: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise InvalidSpec(f"kind must be one of {SWEEP_KINDS}, got {self.kind!r}")
        if not self.values:
            raise InvalidSpec("values must be non-empty")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (*self.values, self.reps)):
            raise InvalidSpec(f"values and reps must be integers, got {self.values}, {self.reps!r}")
        if any(v < 1 for v in self.values):
            raise InvalidSpec(f"swept values must be positive, got {self.values}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InvalidSpec(f"swept values must be strictly increasing, got {self.values}")
        if self.reps < 1:
            raise InvalidSpec(f"reps must be >= 1, got {self.reps}")
        if not is_seed(self.base_seed):
            raise InvalidSpec(f"base_seed must be an integer, got {self.base_seed!r}")
        if not 0 < self.date_min <= self.date_max:
            raise InvalidSpec(f"need 0 < date_min <= date_max, got [{self.date_min}, {self.date_max}]")
        if self.kind == "containers":
            if self.n_containers is not None or self.dims is not None:
                raise InvalidSpec("a containers sweep derives n_containers and dims from each value")
        else:
            if self.n_containers is None or self.dims is None:
                raise InvalidSpec(f"a {self.kind} sweep needs fixed n_containers and dims")
            if self.n_containers > self.dims.capacity:
                raise InvalidSpec(
                    f"{self.n_containers} containers exceed bay capacity {self.dims.capacity}"
                )


@dataclass(frozen=True)
class SweepPoint:
    """Means over the repetitions at one swept value."""

    swept_value: int
    mean_initial_best: float
    mean_final_best: float
    mean_elapsed_ms: float


@dataclass(frozen=True)
class SweepRun:
    """One underlying engine run, kept so summaries can be re-derived."""

    swept_value: int
    rep: int
    instance: Instance
    stats: RunStats


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[SweepPoint, ...]
    runs: tuple[SweepRun, ...]


def cube_dims(n_containers: int) -> BayDims:
    """Smallest cubic bay that holds the given number of containers."""
    if n_containers < 1:
        raise ValueError(f"need at least one container, got {n_containers}")
    side = 1
    while side**3 < n_containers:
        side += 1
    return BayDims(side, side, side)


def sweep_instance(spec: SweepSpec, value: int, rep: int) -> Instance:
    """The instance a given (value, repetition) point runs on.

    Containers sweeps key the instance seed on the value as well, since each
    value is a different problem; the other sweeps share one instance per
    repetition so the swept knob is the only difference between points.
    """
    if spec.kind == "containers":
        dims, nc = cube_dims(value), value
        seed = derive_seed(spec.base_seed, _INSTANCE_STREAM, value, rep)
    else:
        dims, nc = spec.dims, spec.n_containers
        seed = derive_seed(spec.base_seed, _INSTANCE_STREAM, 0, rep)
    return generate_instance(
        GeneratorSpec(dims, nc, date_min=spec.date_min, date_max=spec.date_max, seed=seed)
    )


def _point_config(spec: SweepSpec, value: int, rep: int) -> GaConfig:
    seed = derive_seed(spec.base_seed, _RUN_STREAM, value, rep)
    if spec.kind == "generations":
        return replace(spec.config, generations=value, seed=seed)
    if spec.kind == "population":
        return replace(spec.config, pop_size=value, seed=seed)
    return replace(spec.config, seed=seed)


def run_sweep(spec: SweepSpec) -> SweepResult:
    points = []
    runs = []
    for value in spec.values:
        initial, final, elapsed = 0.0, 0.0, 0.0
        for rep in range(spec.reps):
            instance = sweep_instance(spec, value, rep)
            stats = run(instance, _point_config(spec, value, rep))
            runs.append(SweepRun(value, rep, instance, stats))
            initial += stats.initial_best
            final += stats.final_best
            elapsed += stats.total_elapsed_ms
        points.append(
            SweepPoint(value, initial / spec.reps, final / spec.reps, elapsed / spec.reps)
        )
    return SweepResult(spec, tuple(points), tuple(runs))
