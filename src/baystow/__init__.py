"""Stowage planning for a single bay of identical containers.

Arrangements assign container ids to bay cells; the cost of an arrangement
is the sum over containers of priority times the number of containers
stacked above, where priority is the reciprocal of the delivery date. The
package provides the bay geometry, constraint validation, the evolutionary
solver, two independent optimum finders for checking it, JSON/CSV
serialization, and parameter-sweep experiments with a CLI front end.
"""

from .arrangement import (
    EMPTY,
    Arrangement,
    Violation,
    above_count,
    canonical_fill,
    shuffle_ids,
    validate,
)
from .bay import BayDims, Cell, canonical_above_counts, scan_coords
from .errors import (
    BaystowError,
    CapacityExceeded,
    CellEmpty,
    EmptyPopulation,
    InvalidArrangement,
    InvalidSpec,
    NonPositiveDate,
    ParseError,
    ShapeMismatch,
    TooLarge,
)
from .evaluation import EvalResult, fitness, rehandles
from .experiments import (
    SWEEP_KINDS,
    SweepPoint,
    SweepResult,
    SweepRun,
    SweepSpec,
    cube_dims,
    run_sweep,
    sweep_instance,
)
from .ga import (
    CrossoverPlanes,
    GaConfig,
    GenerationRecord,
    RunStats,
    crossover,
    evolve_step,
    init_population,
    mutate,
    roulette_select,
    run,
)
from .instances import Container, GeneratorSpec, Instance, generate_instance
from .oracle import (
    EXHAUSTIVE_LIMIT,
    OracleResult,
    exhaustive_optimum,
    rearrangement_optimum,
)
from .serialize import (
    STATS_HEADER,
    SWEEP_HEADER,
    read_arrangement,
    read_instance,
    read_stats,
    write_arrangement,
    write_instance,
    write_stats,
    write_sweep_summary,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "EXHAUSTIVE_LIMIT",
    "STATS_HEADER",
    "SWEEP_HEADER",
    "SWEEP_KINDS",
    "Arrangement",
    "BayDims",
    "BaystowError",
    "CapacityExceeded",
    "Cell",
    "CellEmpty",
    "Container",
    "CrossoverPlanes",
    "EmptyPopulation",
    "EvalResult",
    "GaConfig",
    "GenerationRecord",
    "GeneratorSpec",
    "Instance",
    "InvalidArrangement",
    "InvalidSpec",
    "NonPositiveDate",
    "OracleResult",
    "ParseError",
    "RunStats",
    "ShapeMismatch",
    "SweepPoint",
    "SweepResult",
    "SweepRun",
    "SweepSpec",
    "TooLarge",
    "Violation",
    "above_count",
    "canonical_above_counts",
    "canonical_fill",
    "crossover",
    "cube_dims",
    "evolve_step",
    "exhaustive_optimum",
    "fitness",
    "generate_instance",
    "init_population",
    "mutate",
    "read_arrangement",
    "read_instance",
    "read_stats",
    "rearrangement_optimum",
    "rehandles",
    "roulette_select",
    "run",
    "run_sweep",
    "scan_coords",
    "shuffle_ids",
    "sweep_instance",
    "validate",
    "write_arrangement",
    "write_instance",
    "write_stats",
    "write_sweep_summary",
]
