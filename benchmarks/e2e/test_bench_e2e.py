"""Checks of the end-to-end benchmark itself.  Not part of tier-1
(``testpaths`` stays ``tests``); run explicitly, about a minute::

    python -m pytest benchmarks/e2e -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _smoke(out: Path) -> dict:
    proc = subprocess.run([*RUN, "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    results["stdout"] = proc.stdout
    return results


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    return _smoke(root / "a"), _smoke(root / "b")


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT.fullmatch(metric["unit"]), metric
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_one_command_prints_every_metric_by_name_with_its_unit(smoke_runs):
    first, _ = smoke_runs
    assert first["failed"] == []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            values = first["end_to_end"][workload][metric["name"]]
            assert values and all(v > 0 for v in values), (workload, metric)
        assert set(first["per_layer"][workload]) == {
            m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        row = (rf"{re.escape(metric['name'])}\s+(?:[-+.e0-9]+\s+)?"
               rf"{re.escape(metric['unit'])}\s")
        assert re.search(row, first["stdout"]), metric


def test_result_object_of_one_run():
    proc = subprocess.run(
        [*RUN, "--workload", "pr_dense", "--seed", "5", "--seconds", "0.5",
         "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"].keys() == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "B") and not m["name"].startswith("host.")]
    assert "core.messages" in counted and "cache.hits" in counted
    for workload, layers in first["per_layer"].items():
        for name in counted:
            assert layers[name] == second["per_layer"][workload][name], (
                workload, name)


def test_spans_cover_the_operation(smoke_runs):
    """Layer self times account for >= 90 % of each job / repetition."""
    first, _ = smoke_runs
    for workload, layers in first["per_layer"].items():
        assert layers["trace.coverage"] >= 0.9, workload


def test_compare_two_sets_of_the_same_commit(smoke_runs, tmp_path):
    paths = []
    for i, results in enumerate(smoke_runs):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(results), encoding="utf-8")
    proc = subprocess.run([*RUN, "--compare", *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    rows = [line for line in proc.stdout.splitlines() if "base A =" in line]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert "per-layer counts: identical" in proc.stdout
    # Single half-second smoke runs are too short to hold the bounds; the
    # verdict column only has to be one of the three words.
    assert all(re.search(r"\b(ok|worse|unresolved)\b", row) for row in rows)
    assert proc.returncode == (1 if any(" worse " in r for r in rows) else 0)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result object."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pr_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
