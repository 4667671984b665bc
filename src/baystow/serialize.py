"""File formats: JSON instance and arrangement documents, CSV run statistics.

Documents are strict: unknown fields are rejected rather than ignored, so a
typo in a hand-edited file surfaces as a ParseError naming the field instead
of silently producing a different experiment. Structural problems in a file
(undecodable bytes, bad JSON, wrong types, out-of-range values, duplicate
ids, coordinates outside the bay, a bay too large to allocate) raise
ParseError; a container count that cannot fit the declared bay raises
CapacityExceeded; whether an arrangement satisfies the stacking rules is
not a file concern and stays with `arrangement.validate`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

import numpy as np

from .arrangement import Arrangement
from .bay import BayDims, Cell
from .errors import CapacityExceeded, InvalidSpec, ParseError
from .ga import GenerationRecord, RunStats
from .instances import Container, Instance

STATS_HEADER = ("generation", "best_fitness", "mean_fitness", "elapsed_ms")
SWEEP_HEADER = ("swept_value", "mean_fi", "mean_ff", "mean_elapsed_ms")


def _fmt(value: float) -> str:
    """Six significant digits, plain decimal where possible."""
    return format(float(value), ".6g")


def _load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Undecodable bytes, integers past Python's digit limit, nesting past the recursion limit.
        raise ParseError(f"{path}: {exc}") from exc


def _require_object(value: Any, where: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    unknown = [key for key in value if key not in allowed]
    if unknown:
        raise ParseError(f"{where}: unknown field '{unknown[0]}' (allowed: {', '.join(allowed)})")
    missing = [key for key in allowed if key not in value]
    if missing:
        raise ParseError(f"{where}: missing field '{missing[0]}'")
    return value


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_dims(value: Any, where: str) -> tuple[BayDims, np.ndarray]:
    """The bay and an empty grid for it; a bay too large to allocate is a ParseError."""
    obj = _require_object(value, where, ("n1", "n2", "n3"))
    try:
        dims = BayDims(**obj)
    except InvalidSpec as exc:
        raise ParseError(f"{where}: {exc}") from exc
    try:
        return dims, np.zeros((dims.n1, dims.n2, dims.n3), dtype=np.int64)
    except (ValueError, MemoryError) as exc:
        raise ParseError(f"{where}: cannot hold a {dims} bay: {exc}") from exc


def write_instance(instance: Instance, path: str | Path) -> None:
    document = {
        "dims": {"n1": instance.dims.n1, "n2": instance.dims.n2, "n3": instance.dims.n3},
        "containers": [
            {"id": c.id, "delivery_date": c.delivery_date} for c in instance.containers
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def read_instance(path: str | Path) -> Instance:
    path = Path(path)
    root = _require_object(_load_json(path), f"{path}", ("dims", "containers"))
    dims, _ = _parse_dims(root["dims"], f"{path}: dims")
    raw = root["containers"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}: containers: expected a list, got {type(raw).__name__}")
    if len(raw) > dims.capacity:
        raise CapacityExceeded(
            f"{path}: {len(raw)} containers exceed bay capacity {dims.capacity}"
        )
    containers = []
    for index, item in enumerate(raw):
        where = f"{path}: containers[{index}]"
        obj = _require_object(item, where, ("id", "delivery_date"))
        date = _require_number(obj["delivery_date"], f"{where}.delivery_date")
        try:
            containers.append(Container(obj["id"], date))
        except InvalidSpec as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Instance(dims, tuple(containers))
    except InvalidSpec as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_arrangement(arr: Arrangement, path: str | Path) -> None:
    document = {
        "dims": {"n1": arr.dims.n1, "n2": arr.dims.n2, "n3": arr.dims.n3},
        "cells": [
            {"x": cell.x, "y": cell.y, "z": cell.z, "id": cid}
            for cell, cid in arr.occupied_cells()
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def read_arrangement(path: str | Path) -> Arrangement:
    path = Path(path)
    root = _require_object(_load_json(path), f"{path}", ("dims", "cells"))
    dims, grid = _parse_dims(root["dims"], f"{path}: dims")
    raw = root["cells"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}: cells: expected a list, got {type(raw).__name__}")
    if len(raw) > dims.capacity:
        raise CapacityExceeded(f"{path}: {len(raw)} cells exceed bay capacity {dims.capacity}")
    seen_ids: set[int] = set()
    for index, item in enumerate(raw):
        where = f"{path}: cells[{index}]"
        obj = _require_object(item, where, ("x", "y", "z", "id"))
        cell = Cell(*(_require_int(obj[axis], f"{where}.{axis}") for axis in ("x", "y", "z")))
        if not dims.contains(cell):
            raise ParseError(f"{where}: cell {tuple(cell)} outside bay {dims}")
        if grid[cell]:
            raise ParseError(f"{where}: duplicate cell {tuple(cell)}")
        cid = _require_int(obj["id"], f"{where}.id")
        if not 1 <= cid <= dims.capacity:
            raise ParseError(f"{where}.id: container ids must be in 1..{dims.capacity}, got {cid}")
        if cid in seen_ids:
            raise ParseError(f"{where}: duplicate container id {cid}")
        grid[cell] = cid
        seen_ids.add(cid)
    return Arrangement(dims, grid)


def _write_csv(path: str | Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_stats(stats: RunStats, path: str | Path) -> None:
    """One CSV row per generation under the fixed header."""
    _write_csv(
        path,
        STATS_HEADER,
        (
            (r.generation, _fmt(r.best_fitness), _fmt(r.mean_fitness), _fmt(r.elapsed_ms))
            for r in stats.records
        ),
    )


def read_stats(path: str | Path) -> tuple[GenerationRecord, ...]:
    path = Path(path)
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows or tuple(rows[0]) != STATS_HEADER:
        raise ParseError(f"{path}: expected header {','.join(STATS_HEADER)}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(STATS_HEADER):
            raise ParseError(f"{path}: line {lineno}: expected {len(STATS_HEADER)} columns")
        try:
            records.append(
                GenerationRecord(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
            )
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(records)


def write_sweep_summary(rows, path: str | Path) -> None:
    """Per-point sweep means; `rows` yields objects with the four summary fields."""
    _write_csv(
        path,
        SWEEP_HEADER,
        (
            (p.swept_value, _fmt(p.mean_initial_best), _fmt(p.mean_final_best), _fmt(p.mean_elapsed_ms))
            for p in rows
        ),
    )
