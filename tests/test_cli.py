import json

import pytest

from baystow import GaConfig, canonical_fill, read_instance, read_stats, write_arrangement
from baystow.cli import _ga_config, build_parser, main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = main(["generate", "--dims", "2x2x2", "--nc", "8", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


# One-container instances whose bays are too large to allocate.
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
        assert all(2 <= c.delivery_date <= 3 for c in read_instance(path).containers)

    def test_malformed_dims_is_usage_error(self, tmp_path):
        code = main(["generate", "--dims", "2by2", "--nc", "4", "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestSolve:
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

    def test_unexpected_exception_is_internal_error(self, tmp_path, instance_file, capsys, monkeypatch):
        def broken_run(instance, cfg):
            raise ValueError("engine bug")

        monkeypatch.setattr("baystow.cli.run", broken_run)
        assert solve(instance_file, tmp_path / "out") == 4
        assert capsys.readouterr().err.splitlines() == ["internal error: ValueError: engine bug"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--dims", "2xax2", "--nc", "4"],
            ["sweep", "containers", "--values", "4,x"],
            ["generate", "--dims", "2x2x2", "--nc", "4", "--date-range", "5"],
            ["generate", "--dims", "2x2x2", "--nc", "4", "--date-range", "a:b"],
        ],
        ids=["dims", "values", "date-range-no-colon", "date-range-not-numbers"],
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
