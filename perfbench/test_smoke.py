"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload, untraced and traced, on a 20-container bay and checks
that each metric named in BENCHMARK.json is printed with its unit, and that
the output check counts a corrupted `best.json` as a failure.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import run as bench

if not bench.use_checkout_source():
    raise ImportError(f"no baystow source at {bench.SRC}")

from baystow import BayDims, GaConfig  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_cli_outputs, cli_request, make_inputs  # noqa: E402

SMOKE_OUT = bench.OUT / "smoke"
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: Workload) -> Workload:
    """The same workload at sizes small enough for a smoke test."""
    return replace(
        workload,
        problem=replace(workload.problem, dims=BayDims(3, 3, 3), n_containers=20, generations=5),
        target_gap=10.0,
        distinct_inputs=2,
        sweep=replace(workload.sweep, values=(4, 8), n_containers=8,
                      dims=BayDims(2, 2, 2), reps=1, config=GaConfig(generations=3)),
    )


def test_declared_metrics_match_the_benchmark():
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = bench.measure(tiny(WORKLOADS[name]), 3, 0.01, trace, 0.0, out=SMOKE_OUT)
    printed = capsys.readouterr().out
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        line = rf"^metric {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}\b"
        assert re.search(line, printed, re.MULTILINE), metric["name"]


def test_duplicated_id_in_best_json_is_a_failure():
    workload = tiny(WORKLOADS["cli-roundtrip"])
    inp = make_inputs(workload, 5)[0]
    workdir = SMOKE_OUT / "corrupt"
    assert cli_request(workload, inp, Tracer(False), workdir, bench.SRC).problems == []

    best = workdir / "run" / "best.json"
    document = json.loads(best.read_text())
    document["cells"][1]["id"] = document["cells"][0]["id"]
    best.write_text(json.dumps(document))
    problems = check_cli_outputs(workload, inp, Tracer(False), workdir).problems
    assert problems and "does not read back" in problems[0]
