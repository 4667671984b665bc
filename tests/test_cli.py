import json
import math

import pytest

from baystow import (
    GaConfig,
    InvalidArrangement,
    ShapeMismatch,
    canonical_fill,
    read_instance,
    read_stats,
    write_arrangement,
)
from baystow.cli import _ga_config, build_parser, main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = main(["generate", "--dims", "2x2x2", "--nc", "8", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


# One-container instances whose bays are past the cell limit.
HUGE_BAY_INSTANCES = [
    b'{"dims": {"n1": 99999999999999999999, "n2": 2, "n3": 2},'
    b' "containers": [{"id": 1, "delivery_date": 1.0}]}',
    b'{"dims": {"n1": 100000, "n2": 100000, "n3": 100000},'
    b' "containers": [{"id": 1, "delivery_date": 1.0}]}',
]


def solve(instance_file, out_dir, *extra):
    return main(
        ["solve", str(instance_file), "--pop-size", "10", "--generations", "15",
         "--seed", "5", "--out", str(out_dir), *extra]
    )


class TestGenerate:
    def test_writes_readable_instance(self, instance_file):
        inst = read_instance(instance_file)
        assert inst.n_containers == 8

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--dims", "3x3x3", "--nc", "20", "--seed", "9", "--out", str(a)])
        main(["generate", "--dims", "3x3x3", "--nc", "20", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_overfull_is_usage_error(self, tmp_path):
        code = main(["generate", "--dims", "1x1x2", "--nc", "5", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_date_range_bounds_dates(self, tmp_path):
        path = tmp_path / "dated.json"
        code = main(["generate", "--dims", "3x3x3", "--nc", "20", "--date-range", "2:3",
                     "--out", str(path)])
        assert code == 0
        assert all(2 <= d <= 3 for d in read_instance(path).delivery_dates)

    def test_malformed_dims_is_usage_error(self, tmp_path):
        code = main(["generate", "--dims", "2by2", "--nc", "4", "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestSolve:
    def test_generations_past_limit_is_usage_error(self, tmp_path, instance_file, capsys):
        out = tmp_path / "out"
        assert main(["solve", str(instance_file), "--generations", str(2**24 + 1),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["usage error: generations must be at most 16777216, got 16777217"]
        assert not out.exists()

    def test_writes_stats_and_best(self, tmp_path, instance_file, capsys):
        out = tmp_path / "run"
        assert solve(instance_file, out) == 0
        printed = capsys.readouterr().out
        assert "F_i =" in printed and "F_f =" in printed and "elapsed_ms =" in printed
        records = read_stats(out / "stats.csv")
        assert len(records) == 15
        assert main(["validate", str(instance_file), str(out / "best.json")]) == 0

    def test_single_generation_prints_equal_initial_and_final(self, tmp_path, instance_file, capsys):
        out = tmp_path / "one"
        code = main(["solve", str(instance_file), "--generations", "1", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        fi = next(line.split("=")[1] for line in lines if line.startswith("F_i"))
        ff = next(line.split("=")[1] for line in lines if line.startswith("F_f"))
        assert fi == ff

    def test_reruns_are_identical(self, tmp_path, instance_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        solve(instance_file, out1)
        solve(instance_file, out2)
        assert (out1 / "best.json").read_text() == (out2 / "best.json").read_text()
        a = [(r.generation, r.best_fitness, r.mean_fitness) for r in read_stats(out1 / "stats.csv")]
        b = [(r.generation, r.best_fitness, r.mean_fitness) for r in read_stats(out2 / "stats.csv")]
        assert a == b

    def test_large_fitness_sum_has_finite_mean(self, tmp_path):
        """Each fitness is finite but ten of them sum past the float range; the mean stays finite."""
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 2},
            "containers": [{"id": 1, "delivery_date": 1.2e-308}, {"id": 2, "delivery_date": 1e300}],
        }))
        out = tmp_path / "out"
        # Seed 0 puts seven of the ten initial individuals in the costly order.
        assert main(["solve", str(path), "--pop-size", "10", "--seed", "0", "--out", str(out)]) == 0
        records = read_stats(out / "stats.csv")
        assert all(math.isfinite(r.mean_fitness) for r in records)
        assert all(r.best_fitness <= r.mean_fitness for r in records)

    def test_missing_instance_is_parse_error(self, tmp_path):
        assert solve(tmp_path / "nope.json", tmp_path / "out") == 2

    def test_corrupt_instance_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert solve(bad, tmp_path / "out") == 2

    def test_overfull_instance_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "dims": {"n1": 1, "n2": 1, "n3": 2},
            "containers": [{"id": i, "delivery_date": 1.0} for i in range(1, 4)],
        }))
        assert solve(path, tmp_path / "out") == 2
        assert "exceed bay capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("document", HUGE_BAY_INSTANCES, ids=["past-numpy-limit", "unallocatable"])
    def test_huge_bay_instance_is_parse_error(self, tmp_path, capsys, document):
        path = tmp_path / "huge.json"
        path.write_bytes(document)
        assert solve(path, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot hold" in err
        assert len(err.splitlines()) == 1

    def test_bad_probability_is_usage_error(self, tmp_path, instance_file):
        code = main(["solve", str(instance_file), "--pc", "1.7", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_zero_population_is_usage_error(self, tmp_path, instance_file, capsys):
        code = main(["solve", str(instance_file), "--pop-size", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "pop_size" in capsys.readouterr().err


class TestValidate:
    def test_reports_violations_with_status_3(self, tmp_path, instance_file, capsys):
        floating = tmp_path / "float.json"
        floating.write_text(json.dumps({
            "dims": {"n1": 2, "n2": 2, "n3": 2},
            "cells": [{"x": 0, "y": 0, "z": 1, "id": 1}],
        }))
        code = main(["validate", str(instance_file), str(floating)])
        assert code == 3
        out = capsys.readouterr().out
        assert "support" in out

    def test_duplicate_id_is_parse_error_not_constraint_report(self, tmp_path, instance_file):
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({
            "dims": {"n1": 2, "n2": 2, "n3": 2},
            "cells": [
                {"x": 0, "y": 0, "z": 0, "id": 1},
                {"x": 0, "y": 1, "z": 0, "id": 1},
            ],
        }))
        assert main(["validate", str(instance_file), str(dup)]) == 2

    @pytest.mark.parametrize(
        "role, document",
        [
            ("arrangement", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "cells": [{"x": 0, "y": 0, "z": 0, "id": 10**29}],
            }),
            ("instance", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "containers": [{"id": 1, "delivery_date": 1.0}, {"id": 10**29, "delivery_date": 1.0}],
            }),
            # Raw bytes: files that fail to decode or to allocate.
            pytest.param("instance", b"\xff\xfe{}", id="instance-not-utf8"),
            pytest.param("arrangement", b"\xff\xfe{}", id="arrangement-not-utf8"),
            pytest.param(
                "instance",
                b'{"dims": {"n1": 2, "n2": 2, "n3": 2}, "containers": [{"id": 1'
                + b"0" * 5000 + b', "delivery_date": 1.0}]}',
                id="instance-5001-digit-id",
            ),
            pytest.param("instance", b"[" * 200_000, id="instance-nested-200000-deep"),
            pytest.param(
                "arrangement",
                b'{"dims": {"n1": 99999999999999999999, "n2": 2, "n3": 2}, "cells": []}',
                id="arrangement-dims-past-numpy-limit",
            ),
            pytest.param(
                "arrangement",
                b'{"dims": {"n1": 100000, "n2": 100000, "n3": 100000}, "cells": []}',
                id="arrangement-dims-unallocatable",
            ),
            pytest.param("instance", HUGE_BAY_INSTANCES[0], id="instance-dims-past-numpy-limit"),
            pytest.param("instance", HUGE_BAY_INSTANCES[1], id="instance-dims-unallocatable"),
            # One row per reader check that no other row reaches.
            pytest.param("arrangement", {
                "dims": {"n1": 1, "n2": 1, "n3": 1},
                "cells": [{"x": 0, "y": 0, "z": 0, "id": 1}, {"x": 0, "y": 0, "z": 0, "id": 2}],
            }, id="arrangement-over-capacity"),
            pytest.param("arrangement", {"dims": {"n1": 0, "n2": 2, "n3": 2}, "cells": []},
                         id="arrangement-dims-zero"),
            pytest.param("instance", {"dims": {"n1": True, "n2": 2, "n3": 2}, "containers": []},
                         id="instance-dims-bool"),
            pytest.param("instance", {"dims": [2, 2, 2], "containers": []}, id="instance-dims-list"),
            pytest.param("instance", {"dims": {"n1": 2, "n2": 2, "n3": 2}},
                         id="instance-no-containers"),
            pytest.param("arrangement", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "cells": [{"x": 0.0, "y": 0, "z": 0, "id": 1}],
            }, id="arrangement-float-coordinate"),
            pytest.param("instance", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "containers": [{"id": 1, "delivery_date": "1"}],
            }, id="instance-string-date"),
            pytest.param("instance", {"dims": {"n1": 2, "n2": 2, "n3": 2}, "containers": {}},
                         id="instance-containers-object"),
            pytest.param("arrangement", {"dims": {"n1": 2, "n2": 2, "n3": 2}, "cells": {}},
                         id="arrangement-cells-object"),
            # Finite, positive dates whose priority 1/date, or whose worst-case fitness, overflows.
            pytest.param("instance", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "containers": [{"id": 1, "delivery_date": 1.0}, {"id": 2, "delivery_date": 1e-320}],
            }, id="instance-date-priority-overflows"),
            pytest.param("instance", {
                "dims": {"n1": 1, "n2": 1, "n3": 2},
                "containers": [{"id": i, "delivery_date": 1e-308} for i in (1, 2)],
            }, id="instance-worst-case-fitness-overflows"),
            pytest.param("instance", {
                "dims": {"n1": 2, "n2": 2, "n3": 2},
                "containers": [{"id": 1, "delivery_date": 10**400}],
            }, id="instance-date-past-float-range"),
        ],
    )
    def test_huge_id_is_parse_error(self, tmp_path, instance_file, capsys, role, document):
        files = {"instance": instance_file, "arrangement": tmp_path / "arr.json"}
        write_arrangement(canonical_fill(read_instance(instance_file)), files["arrangement"])
        files[role] = tmp_path / "huge.json"
        if isinstance(document, bytes):
            files[role].write_bytes(document)
        else:
            files[role].write_text(json.dumps(document))
        assert main(["validate", str(files["instance"]), str(files["arrangement"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_dims_mismatch_is_constraint_failure(self, tmp_path, instance_file):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "dims": {"n1": 3, "n2": 3, "n3": 3},
            "cells": [{"x": 0, "y": 0, "z": 0, "id": 1}],
        }))
        assert main(["validate", str(instance_file), str(other)]) == 3


class TestSweep:
    def test_containers_sweep_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep", "containers", "--values", "4,8", "--pop-size", "6",
             "--generations", "3", "--reps", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "swept_value,mean_fi,mean_ff,mean_elapsed_ms"
        assert len(lines) == 3

    def test_keep_runs_writes_per_run_stats(self, tmp_path):
        out = tmp_path / "swk"
        code = main(
            ["sweep", "generations", "--values", "2,4", "--dims", "2x2x2", "--nc", "8",
             "--pop-size", "6", "--reps", "2", "--seed", "1", "--out", str(out), "--keep-runs"]
        )
        assert code == 0
        names = sorted(p.name for p in (out / "runs").iterdir())
        assert names == [
            "generations_2_rep0.csv",
            "generations_2_rep1.csv",
            "generations_4_rep0.csv",
            "generations_4_rep1.csv",
        ]
        assert len(read_stats(out / "runs" / "generations_4_rep1.csv")) == 4

    def test_population_sweep_needs_fixed_shape(self, tmp_path):
        code = main(["sweep", "population", "--values", "4,6", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_descending_values_is_usage_error(self, tmp_path):
        code = main(["sweep", "containers", "--values", "8,4", "--out", str(tmp_path / "x")])
        assert code == 1


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_defaults_come_from_ga_config(self):
        args = build_parser().parse_args(["solve", "inst.json", "--out", "o"])
        assert _ga_config(args, args.seed) == GaConfig()

    @pytest.mark.parametrize(
        "bug",
        [
            ValueError("engine bug"),
            InvalidArrangement(["engine bug"]),
            ShapeMismatch("engine bug"),
        ],
        ids=lambda bug: type(bug).__name__,
    )
    def test_unexpected_exception_is_internal_error(
        self, tmp_path, instance_file, capsys, monkeypatch, bug
    ):
        """An engine bug exits 4, even when it raises a package error: exit 2 means a bad file."""
        def broken_run(instance, cfg):
            raise bug

        monkeypatch.setattr("baystow.cli.run", broken_run)
        assert solve(instance_file, tmp_path / "out") == 4
        assert capsys.readouterr().err.splitlines() == [
            f"internal error: {type(bug).__name__}: {bug}"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--dims", "2xax2", "--nc", "4"],
            ["sweep", "containers", "--values", "4,x"],
            ["generate", "--dims", "2x2x2", "--nc", "4", "--date-range", "5"],
            ["generate", "--dims", "2x2x2", "--nc", "4", "--date-range", "a:b"],
            ["generate", "--dims", "99999999999999999999x2x2", "--nc", "1"],
            ["sweep", "population", "--values", "4", "--dims", "99999999999999999999x2x2",
             "--nc", "1"],
            ["generate", "--dims", "2x2x2", "--nc", "3", "--date-range", "1e-320:1e-319"],
            # Bays past the cell limit, rejected before anything is allocated.
            ["generate", "--dims", "100000x100000x100000", "--nc", "8"],
            ["sweep", "generations", "--values", "2", "--dims", "2000x2000x1000", "--nc", "8"],
            ["sweep", "containers", "--values", "1000000000000"],
            # Runs past the generations limit, rejected before any point runs.
            ["sweep", "population", "--values", "2", "--dims", "2x2x2", "--nc", "8",
             "--generations", "1000000000000"],
            ["sweep", "generations", "--values", "2,1000000000000", "--dims", "2x2x2", "--nc", "8"],
        ],
        ids=["dims", "values", "date-range-no-colon", "date-range-not-numbers",
             "generate-dims-past-index-limit", "sweep-dims-past-index-limit",
             "date-range-priority-overflows", "generate-dims-past-cell-limit",
             "sweep-dims-past-cell-limit", "sweep-containers-past-cell-limit",
             "sweep-generations-past-limit", "sweep-values-past-generations-limit"],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_command(self):
        assert main(["optimize"]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["generate", "--dims", "2x2x2", "--nc", "4", "--turbo",
                     "--out", str(tmp_path / "x.json")]) == 1
