"""File formats: JSON instance and arrangement documents, CSV run statistics.

Documents are strict: unknown fields are rejected rather than ignored, so a
typo in a hand-edited file surfaces as a ParseError naming the field instead
of silently producing a different experiment. Structural problems in a file
(undecodable bytes, bad JSON, wrong types, out-of-range values, duplicate
ids, coordinates outside the bay, more containers than the bay holds, a bay
past the cell limit) raise ParseError; whether an arrangement satisfies the
stacking rules is not a file concern and stays with `arrangement.validate`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

import numpy as np

from .arrangement import Arrangement
from .bay import BayDims, Cell, cell_coords
from .errors import InvalidSpec, ParseError, require_int
from .ga import HISTORY_DTYPE, HISTORY_FIELDS, GenerationHistory, RunStats
from .instances import Instance, _check_dates

STATS_HEADER = tuple(HISTORY_FIELDS)
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


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ParseError(f"{where}: an integer of {digits} digits is past the float range") from None


def _parse_dims(value: Any, where: str) -> BayDims:
    obj = _require_object(value, where, ("n1", "n2", "n3"))
    try:
        return BayDims(**obj)
    except InvalidSpec as exc:
        raise ParseError(f"{where}: {exc}") from exc


def write_instance(instance: Instance, path: str | Path) -> None:
    document = {
        "dims": {"n1": instance.dims.n1, "n2": instance.dims.n2, "n3": instance.dims.n3},
        "containers": [
            {"id": i, "delivery_date": d} for i, d in enumerate(instance.delivery_dates.tolist(), 1)
        ],
    }
    Path(path).write_text(json.dumps(document) + "\n")


def read_instance(path: str | Path) -> Instance:
    """The instance in `path`; its containers may come in any id order."""
    path = Path(path)
    root = _require_object(_load_json(path), f"{path}", ("dims", "containers"))
    dims = _parse_dims(root["dims"], f"{path}: dims")
    raw = root["containers"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}: containers: expected a list, got {type(raw).__name__}")
    if len(raw) > dims.capacity:
        raise ParseError(f"{path}: {len(raw)} containers exceed bay capacity {dims.capacity}")
    ids, dates = [], []
    for index, item in enumerate(raw):
        where = f"{path}: containers[{index}]"
        obj = _require_object(item, where, ("id", "delivery_date"))
        dates.append(_require_number(obj["delivery_date"], f"{where}.delivery_date"))
        try:
            require_int("container id", obj["id"], 1)
        except InvalidSpec as exc:
            raise ParseError(f"{where}: {exc}") from exc
        ids.append(obj["id"])
    # Ids are >= 1, so below its 1-based rank an id repeats the one before it.
    for rank, cid in enumerate(sorted(ids), 1):
        if cid != rank:
            problem = f"duplicate container id {cid}" if cid < rank else f"id {rank} missing, got {cid}"
            raise ParseError(f"{path}: container ids must be exactly 1..{len(ids)}: {problem}")
    dates = np.array(dates)
    try:
        _check_dates(dates, lambda k: f"containers[{k}]")
        # The ids are a permutation of 1..Nc, so sorting them puts the dates in id order.
        return Instance(dims, dates[np.argsort(ids)])
    except InvalidSpec as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_arrangement(arr: Arrangement, path: str | Path) -> None:
    vector = arr.scan_vector()
    occupied = np.flatnonzero(vector)
    columns = (*cell_coords(arr.dims, occupied), vector[occupied])
    document = {
        "dims": {"n1": arr.dims.n1, "n2": arr.dims.n2, "n3": arr.dims.n3},
        "cells": [
            {"x": x, "y": y, "z": z, "id": cid} for x, y, z, cid in zip(*(c.tolist() for c in columns))
        ],
    }
    Path(path).write_text(json.dumps(document) + "\n")


def read_arrangement(path: str | Path) -> Arrangement:
    path = Path(path)
    root = _require_object(_load_json(path), f"{path}", ("dims", "cells"))
    dims = _parse_dims(root["dims"], f"{path}: dims")
    raw = root["cells"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}: cells: expected a list, got {type(raw).__name__}")
    if len(raw) > dims.capacity:
        raise ParseError(f"{path}: {len(raw)} cells exceed bay capacity {dims.capacity}")
    grid = np.zeros((dims.n1, dims.n2, dims.n3), dtype=np.int64)
    seen_ids: set[int] = set()
    for index, item in enumerate(raw):
        where = f"{path}: cells[{index}]"
        obj = _require_object(item, where, ("x", "y", "z", "id"))
        try:
            for field, least in (("x", 0), ("y", 0), ("z", 0), ("id", 1)):
                require_int(field, obj[field], least)
        except InvalidSpec as exc:
            raise ParseError(f"{where}: {exc}") from exc
        cell, cid = Cell(obj["x"], obj["y"], obj["z"]), obj["id"]
        if not dims.contains(cell):
            raise ParseError(f"{where}: cell {tuple(cell)} outside bay {dims}")
        if grid[cell]:
            raise ParseError(f"{where}: duplicate cell {tuple(cell)}")
        if cid > dims.capacity:
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
    """One CSV row per generation under the fixed header, each column formatted by its field's type."""
    columns, formats = stats.records.columns, {int: str, float: _fmt}
    cells = (map(formats[kind], columns[name].tolist()) for name, kind in HISTORY_FIELDS.items())
    _write_csv(path, STATS_HEADER, zip(*cells))


def read_stats(path: str | Path) -> GenerationHistory:
    """The history in `path`, each column parsed as its field's type; rows number generations from 1."""
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
            records.append(tuple(parse(cell) for parse, cell in zip(HISTORY_FIELDS.values(), row)))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if records[-1][0] != lineno - 1:  # the first column numbers the generations
            raise ParseError(f"{path}: line {lineno}: expected generation {lineno - 1}, got {row[0]}")
    return GenerationHistory(np.array(records, dtype=HISTORY_DTYPE))


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
