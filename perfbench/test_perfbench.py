"""Tests of the benchmark itself: seeded inputs, declared metrics, the
correctness gate, and refusal to run without the program.

    python3 -m pytest perfbench/test_perfbench.py
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)
from surfep.serialize import canonical_json  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workspace_is_a_function_of_the_seed(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(5), build(5), build(6)
    assert canonical_json(first.doc) == canonical_json(again.doc)
    assert first.problems == again.problems

    def betas(wl):
        return [p["beta_bar"] for p in wl.doc["problems"].values()]

    assert betas(first) != betas(other)


def test_ladder_rungs_differ_per_seed():
    a, b = workloads.ladder(1).doc["problems"], workloads.ladder(2).doc["problems"]
    assert [p["genus"] for p in a.values()] == [64, 256, 864]
    for name in a:
        assert a[name]["beta_bar"] != b[name]["beta_bar"]


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _first_rung_only(monkeypatch, expect="proper"):
    """Shrink the ladder to its C2 x C2 rung so a whole run takes seconds."""
    full = workloads.ladder

    def small(seed, rec=None):
        wl = full(seed, rec)
        first = wl.problems[0]
        return workloads.Workload(
            {"problems": {first.name: wl.doc["problems"][first.name]}},
            (workloads.Problem(first.name, expect),),
        )

    monkeypatch.setitem(workloads.WORKLOADS, "ladder", small)


def _main(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "trace")
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "ladder", "--seed", "1", "--seconds", "0",
             "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(monkeypatch, tmp_path, trace, section):
    _first_rung_only(monkeypatch)
    code, result = _main(monkeypatch, tmp_path, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        lines = (tmp_path / "trace" / "ladder-seed1.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines[:-1]]
        assert {s["name"].split(".")[0] for s in spans} <= set(run.LAYERS)
        assert all(s["start"] <= s["end"] for s in spans)
        names = {s["name"] for s in spans}
        assert {"cli.solve", "cli.verify", "solver.replay"} <= names
        assert any(
            s["name"] == "groups.make_group" and s["problem"] == "c2xc2" for s in spans
        )
        assert "serialize.word_factors" in json.loads(lines[-1])["counts"]


def test_unexpected_outcome_fails_the_run(monkeypatch, tmp_path):
    _first_rung_only(monkeypatch, expect="not_reduced")
    code, result = _main(monkeypatch, tmp_path, 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {"ok_frac"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
