"""Tests of the benchmark itself: span arithmetic, wrapping, smoke runs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Recorder, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _set_times(span, start, end):
    span["start"], span["end"] = start, end


def test_self_time_subtracts_children_and_leaves():
    rec = Recorder()
    root = rec.open("op")
    child = rec.open("child")
    rec.leaf("leaf", 0.5)
    rec.close(child)
    rec.close(root)
    _set_times(root, 0.0, 10.0)
    _set_times(child, 2.0, 6.0)
    assert self_times(rec) == pytest.approx([6.0, 3.5])
    assert rec.leaves == {(child["id"], "leaf"): [1, 0.5]}


def test_tracer_restores_attributes_and_records_absent_names():
    import spans as target_module

    original = target_module.self_times
    rec = Recorder()
    tracer = Tracer(rec, [
        ("spans:self_times", "bench.self_times", "span", None),
        ("spans:no_such_function", "bench.missing", "span", None),
        ("no_such_module:f", "bench.missing", "span", None),
    ])
    tracer.install()
    assert target_module.self_times is not original
    target_module.self_times(Recorder())
    tracer.uninstall()
    assert target_module.self_times is original
    assert [s["name"] for s in rec.spans] == ["bench.self_times"]
    assert tracer.absent == ["spans:no_such_function", "no_such_module:f"]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.absent_wraps"]["value"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "solve-file", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
