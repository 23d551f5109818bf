"""Self-test of the benchmark: every workload through the command line.

Run from the repository root: ``python3 -m pytest -q cepr_bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    out = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "1", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out.returncode, result, out.stdout + out.stderr


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(ROOT))
    from cepr_bench.layers import END_TO_END, PER_LAYER

    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    code, result, output = run(workload, "--trace", trace)
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, output
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if trace == "0":
            assert printed["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", ["stock-top5", "serve-stock"])
def test_perturbed_rank_value_is_caught(workload):
    """An engine emission (stock-top5) or a wire frame (serve-stock)."""
    code, result, output = run(workload, "--perturb")
    assert code == 0, output
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "MISMATCH" in output


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, output = run("stock-top5", cwd=tmp_path)
    assert code != 0
    assert result is None
    assert "{" not in output
