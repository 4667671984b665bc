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

from ._rng import derive_seed, require_seed
from .bay import _MAX_CELLS, BayDims
from .errors import InvalidSpec, require_int
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
        for value in self.values:
            require_int("swept value", value, 1)
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InvalidSpec(f"swept values must be strictly increasing, got {self.values}")
        require_int("reps", self.reps, 1)
        require_seed("base_seed", self.base_seed)
        if self.kind == "containers":
            if self.n_containers is not None or self.dims is not None:
                raise InvalidSpec("a containers sweep derives n_containers and dims from each value")
        elif self.n_containers is None or self.dims is None:
            raise InvalidSpec(f"a {self.kind} sweep needs fixed n_containers and dims")
        # The generator owns the container-count and date-range bounds, `GaConfig` a run's.
        for value in self.values:
            _generator_spec(self, value, 0)
            _point_config(self, value, 0)


@dataclass(frozen=True)
class SweepPoint:
    """Means over the repetitions at one swept value."""

    swept_value: int
    mean_initial_best: float
    mean_final_best: float
    mean_elapsed_ms: float


@dataclass(frozen=True)
class SweepRun:
    """One engine run, kept so summaries can be re-derived; `sweep_instance` rebuilds its instance."""

    swept_value: int
    rep: int
    stats: RunStats


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    runs: tuple[SweepRun, ...]


def cube_dims(n_containers: int) -> BayDims:
    """Smallest cubic bay that holds the given number of containers."""
    require_int("n_containers", n_containers, 1)
    if n_containers > _MAX_CELLS:
        raise InvalidSpec(f"{n_containers} containers exceed the {_MAX_CELLS} cells a bay may have")
    side = 1
    while side**3 < n_containers:
        side += 1
    return BayDims(side, side, side)


def _generator_spec(spec: SweepSpec, value: int, rep: int) -> GeneratorSpec:
    if spec.kind == "containers":
        dims, nc = cube_dims(value), value
        seed = derive_seed(spec.base_seed, _INSTANCE_STREAM, value, rep)
    else:
        dims, nc = spec.dims, spec.n_containers
        seed = derive_seed(spec.base_seed, _INSTANCE_STREAM, 0, rep)
    return GeneratorSpec(dims, nc, date_min=spec.date_min, date_max=spec.date_max, seed=seed)


def sweep_instance(spec: SweepSpec, value: int, rep: int) -> Instance:
    """The instance a given (value, repetition) point runs on.

    Containers sweeps key the instance seed on the value as well, since each
    value is a different problem; the other sweeps share one instance per
    repetition so the swept knob is the only difference between points.
    """
    return generate_instance(_generator_spec(spec, value, rep))


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
            stats = run(sweep_instance(spec, value, rep), _point_config(spec, value, rep))
            runs.append(SweepRun(value, rep, stats))
            initial += stats.initial_best
            final += stats.final_best
            elapsed += stats.total_elapsed_ms
        points.append(
            SweepPoint(value, initial / spec.reps, final / spec.reps, elapsed / spec.reps)
        )
    return SweepResult(tuple(points), tuple(runs))
