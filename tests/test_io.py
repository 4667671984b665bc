import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baystow import (
    Arrangement,
    BayDims,
    GaConfig,
    GeneratorSpec,
    Instance,
    ParseError,
    RunStats,
    STATS_HEADER,
    SWEEP_HEADER,
    canonical_fill,
    generate_instance,
    read_arrangement,
    read_instance,
    read_stats,
    run,
    shuffle_ids,
    validate,
    write_arrangement,
    write_instance,
    write_stats,
    write_sweep_summary,
)
from baystow.experiments import SweepPoint
from baystow.ga import HISTORY_DTYPE, GenerationHistory
from conftest import make_instance

READERS = {"instance": read_instance, "arrangement": read_arrangement, "stats": read_stats}


@pytest.fixture
def instance():
    return generate_instance(GeneratorSpec(BayDims(3, 2, 3), 14, seed=20))


class TestInstanceFiles:
    def test_round_trip_is_identity(self, tmp_path, instance):
        path = tmp_path / "inst.json"
        write_instance(instance, path)
        assert read_instance(path) == instance

    def test_round_trip_preserves_dates_bitwise(self, tmp_path, instance):
        path = tmp_path / "inst.json"
        write_instance(instance, path)
        again = read_instance(path)
        assert instance.delivery_dates.tobytes() == again.delivery_dates.tobytes()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 1},
            "containers": [{"id": 1, "delivery_date": 2.0, "weight": 9}],
        }))
        with pytest.raises(ParseError, match="weight"):
            read_instance(path)

    def test_duplicate_id_named_in_error(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "dims": {"n1": 2, "n2": 1, "n3": 1},
            "containers": [
                {"id": 1, "delivery_date": 2.0},
                {"id": 1, "delivery_date": 3.0},
            ],
        }))
        with pytest.raises(ParseError, match="duplicate container id 1"):
            read_instance(path)

    def test_overfull_bay_is_dimension_mismatch(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 2},
            "containers": [{"id": i, "delivery_date": 1.0} for i in range(1, 4)],
        }))
        with pytest.raises(ParseError, match="big.json: 3 containers exceed bay capacity 2"):
            read_instance(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": {')
        with pytest.raises(ParseError, match="line"):
            read_instance(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_missing_file(self, tmp_path, kind):
        with pytest.raises(ParseError, match="absent"):
            READERS[kind](tmp_path / "absent")

    def test_non_positive_date_rejected(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 1},
            "containers": [{"id": 1, "delivery_date": 0.0}],
        }))
        with pytest.raises(ParseError, match="delivery date"):
            read_instance(path)


    @pytest.mark.parametrize(
        "containers, problem",
        [
            ([(0, 1.0)], "containers[0]: container id must be an integer >= 1, got 0"),
            ([(1, 1.0), (1.5, 1.0)], "containers[1]: container id must be an integer >= 1, got 1.5"),
            ([(True, 1.0)], "containers[0]: container id must be an integer >= 1, got True"),
            ([(2, 1.0), (3, 1.0)], "container ids must be exactly 1..2: id 1 missing, got 2"),
            ([(2, 1.0), (1, 1.0), (2, 1.0)],
             "container ids must be exactly 1..3: duplicate container id 2"),
            ([(2, 1.0), (1, 0.0)], "containers[1]: delivery date must be > 0, got 0.0"),
            ([(1, -2.5)], "containers[0]: delivery date must be > 0, got -2.5"),
            ([(2, float("inf")), (1, 1.0)], "containers[0]: delivery date must be finite, got inf"),
            ([(1, 1.0), (2, float("nan"))], "containers[1]: delivery date must be finite, got nan"),
            ([(1, 1.0), (2, 1e-320)],
             "containers[1]: delivery date must have a finite priority 1/date, got 1e-320"),
            ([(1, 1e-308), (2, 1e-308), (3, 1e-308)],
             "delivery dates give a worst-case fitness of inf, not finite"),
            ([(1, 10**400)],
             "containers[0].delivery_date: an integer of 401 digits is past the float range"),
        ],
    )
    def test_bad_id_or_date_message(self, tmp_path, containers, problem):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 2, "n3": 2},
            "containers": [{"id": cid, "delivery_date": date} for cid, date in containers],
        }))
        with pytest.raises(ParseError) as info:
            read_instance(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_retains_only_the_date_arrays(self, tmp_path):
        """At Nc 8000 an instance, generated or read, holds less than four float64 vectors."""
        nc = 8000
        spec = GeneratorSpec(BayDims(20, 20, 20), nc, seed=1)
        path = tmp_path / "inst.json"
        write_instance(generate_instance(spec), path)
        for make in (lambda: generate_instance(spec), lambda: read_instance(path)):
            tracemalloc.start()
            try:
                inst = make()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert inst.n_containers == nc
            assert retained < 4 * 8 * nc


@st.composite
def shuffled_instance_files(draw):
    """A random instance and a permutation of its container list."""
    dims = BayDims(*(draw(st.integers(1, 4)) for _ in range(3)))
    nc = draw(st.integers(0, dims.capacity))
    dates = draw(st.lists(st.floats(1e-300, 1e300), min_size=nc, max_size=nc))
    return Instance(dims, np.array(dates)), draw(st.permutations(range(nc)))


@settings(max_examples=100, deadline=None)
@given(shuffled_instance_files())
def test_shuffled_container_list_reads_back_equal(tmp_path_factory, case):
    """Ids may come in any order in a file; each keeps its own date."""
    inst, order = case
    path = tmp_path_factory.mktemp("shuffled") / "inst.json"
    write_instance(inst, path)
    document = json.loads(path.read_text())
    document["containers"] = [document["containers"][k] for k in order]
    path.write_text(json.dumps(document))
    again = read_instance(path)
    assert again == inst
    assert again.delivery_dates.tobytes() == inst.delivery_dates.tobytes()


class TestArrangementFiles:
    def test_round_trip_is_identity(self, tmp_path, instance, rng):
        arr = shuffle_ids(canonical_fill(instance), rng, 14)
        path = tmp_path / "arr.json"
        write_arrangement(arr, path)
        assert read_arrangement(path) == arr

    def test_empty_cells_omitted(self, tmp_path, instance):
        arr = canonical_fill(instance)
        path = tmp_path / "arr.json"
        write_arrangement(arr, path)
        document = json.loads(path.read_text())
        assert len(document["cells"]) == 14

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "dupcell.json"
        path.write_text(json.dumps({
            "dims": {"n1": 2, "n2": 1, "n3": 1},
            "cells": [
                {"x": 0, "y": 0, "z": 0, "id": 1},
                {"x": 0, "y": 0, "z": 0, "id": 2},
            ],
        }))
        with pytest.raises(ParseError, match="duplicate cell"):
            read_arrangement(path)

    def test_cell_outside_bay_rejected(self, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 1},
            "cells": [{"x": 0, "y": 0, "z": 5, "id": 1}],
        }))
        with pytest.raises(ParseError, match="outside bay"):
            read_arrangement(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 1},
            "cells": [{"x": 0, "y": 0, "z": 0, "id": 1, "locked": True}],
        }))
        with pytest.raises(ParseError, match="locked"):
            read_arrangement(path)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("x", 1.5, "x must be an integer >= 0, got 1.5"),
            ("z", True, "z must be an integer >= 0, got True"),
            ("id", -1, "id must be an integer >= 1, got -1"),
        ],
    )
    def test_bad_cell_field_named(self, tmp_path, field, value, problem):
        path = tmp_path / "bad.json"
        cells = [{"x": 0, "y": 0, "z": 0, "id": 1}, {"x": 1, "y": 0, "z": 0, "id": 2}]
        cells[1][field] = value
        path.write_text(json.dumps({"dims": {"n1": 2, "n2": 1, "n3": 1}, "cells": cells}))
        with pytest.raises(ParseError) as info:
            read_arrangement(path)
        assert str(info.value) == f"{path}: cells[1]: {problem}"

    def test_read_retains_the_ids_not_the_bay(self, tmp_path, rng):
        """Eight containers in a 4,000,000-cell bay: the value read holds eight ids, not a grid."""
        inst = Instance(BayDims(2000, 2000, 1), np.arange(1.0, 9.0))
        path = tmp_path / "arr.json"
        write_arrangement(shuffle_ids(canonical_fill(inst), rng, 8), path)
        read_arrangement(path)  # imports what a read imports lazily
        tracemalloc.start()
        try:
            arr = read_arrangement(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert validate(arr, inst) == []
        assert retained < 16 * 1024


class TestCompactFiles:
    def test_one_line_documents_round_trip(self, tmp_path, rng):
        """Both JSON writers emit one compact line holding the documented structure, read back unchanged."""
        inst = generate_instance(GeneratorSpec(BayDims(4, 3, 3), 29, seed=5))
        arr = shuffle_ids(canonical_fill(inst), rng, 29)
        # a non-canonical occupancy: the last container moved to the top corner
        vector = np.zeros(inst.dims.capacity, dtype=np.int64)
        vector[:29] = arr.scan
        vector[-1], vector[28] = vector[28], 0
        sparse = Arrangement(inst.dims, vector)
        dims = {"n1": 4, "n2": 3, "n3": 3}
        # Occupied cells in scan order: by floor, then x, then y.
        grid = sparse.grid
        cells = sorted(np.argwhere(grid).tolist(), key=lambda c: (c[2], c[0], c[1]))
        for obj, write, read, document in (
            (inst, write_instance, read_instance, {
                "dims": dims,
                "containers": [{"id": i, "delivery_date": d} for i, d in enumerate(inst.delivery_dates.tolist(), 1)],
            }),
            (sparse, write_arrangement, read_arrangement, {
                "dims": dims,
                "cells": [{"x": x, "y": y, "z": z, "id": int(grid[x, y, z])} for x, y, z in cells],
            }),
        ):
            path = tmp_path / "file.json"
            write(obj, path)
            text = path.read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            assert text == json.dumps(document) + "\n"
            assert read(path) == obj


class TestStatsFiles:
    def test_header_and_row_count(self, tmp_path, instance):
        stats = run(instance, GaConfig(pop_size=8, generations=1, seed=0))
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(STATS_HEADER)
        assert len(lines) == 2  # header plus the single generation

    def test_reparse_matches_monotone_best(self, tmp_path, instance):
        stats = run(instance, GaConfig(pop_size=10, generations=30, seed=1))
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        records = read_stats(path)
        assert len(records) == 30
        bests = [r.best_fitness for r in records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        assert all(r.elapsed_ms >= 0 for r in records)

    def test_generations_numbered_from_one(self, tmp_path, instance):
        stats = run(instance, GaConfig(pop_size=8, generations=5, seed=2))
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        assert [r.generation for r in read_stats(path)] == [1, 2, 3, 4, 5]

    def test_read_history_is_the_run_history_type(self, tmp_path, instance):
        """`read_stats` gives the read-only `HISTORY_DTYPE` columns that `run` gives."""
        stats = run(instance, GaConfig(pop_size=8, generations=5, seed=2))
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        records = read_stats(path)
        assert type(records) is type(stats.records) is GenerationHistory
        assert records.columns.dtype == HISTORY_DTYPE
        assert not records.columns.flags.writeable
        assert records.columns["generation"].tolist() == [1, 2, 3, 4, 5]

    def test_read_back_run_stats_match_the_run(self, tmp_path, instance):
        """`RunStats(read_stats(path), best, f)` reads what the run holds, to the file's six digits."""
        stats = run(instance, GaConfig(pop_size=10, generations=30, seed=4))
        path = tmp_path / "stats.csv"
        write_stats(stats, path)
        again = RunStats(read_stats(path), stats.best, stats.best_fitness)
        six = lambda value: format(value, ".6g")
        assert len(again.records) == len(stats.records)
        for a, b in zip(again.records, stats.records):
            assert a.generation == b.generation
            assert [six(a.best_fitness), six(a.mean_fitness), six(a.elapsed_ms)] == [
                six(b.best_fitness), six(b.mean_fitness), six(b.elapsed_ms)
            ]
        assert six(again.initial_best) == six(stats.initial_best)
        assert six(again.final_best) == six(stats.final_best)
        assert again.total_elapsed_ms == pytest.approx(stats.total_elapsed_ms, rel=1e-5)

    @pytest.mark.parametrize("generation", ["3", "99999999999999999999"])
    def test_generation_out_of_sequence_rejected(self, tmp_path, generation):
        path = tmp_path / "gap.csv"
        path.write_text(",".join(STATS_HEADER) + f"\n1,2,3,4\n{generation},2,3,4\n")
        with pytest.raises(ParseError, match=f"line 3: expected generation 2, got {generation}$"):
            read_stats(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError, match="header"):
            read_stats(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(",".join(STATS_HEADER).encode() + b"\n1,2,3,\xff\n")
        with pytest.raises(ParseError, match="decode"):
            read_stats(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per reader, as (path to overwrite, original bytes)."""
    folder = tmp_path_factory.mktemp("valid")
    instance = generate_instance(GeneratorSpec(BayDims(2, 2, 2), 7, seed=3))
    write_instance(instance, folder / "instance")
    write_arrangement(canonical_fill(instance), folder / "arrangement")
    write_stats(run(instance, GaConfig(pop_size=4, generations=3, seed=0)), folder / "stats")
    return {kind: (folder / kind, (folder / kind).read_bytes()) for kind in READERS}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(READERS)),
    flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4),
    cut=st.none() | st.integers(0, 2**16),
)
def test_corrupted_files_raise_only_file_errors(valid_files, kind, flips, cut):
    """Byte flips and truncations of a valid file end in ParseError."""
    path, original = valid_files[kind]
    data = bytearray(original)
    for position, byte in flips:
        data[position % len(data)] = byte
    if cut is not None:
        del data[cut % (len(data) + 1):]
    path.write_bytes(bytes(data))
    try:
        READERS[kind](path)
    except ParseError:
        pass


class TestSweepSummaryFiles:
    def test_header_and_formatting(self, tmp_path):
        points = [
            SweepPoint(64, 3.14159265, 1.23456789, 100.5),
            SweepPoint(125, 7.0, 2.5, 200.25),
        ]
        path = tmp_path / "summary.csv"
        write_sweep_summary(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert lines[1] == "64,3.14159,1.23457,100.5"
        assert lines[2] == "125,7,2.5,200.25"
