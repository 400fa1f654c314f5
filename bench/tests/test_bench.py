"""The benchmark's own tests, on the tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import LAYERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_and_nothing_fails(workload):
    proc = run_bench(workload, trace=0)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, unit in END_TO_END.items():
        assert "%s: " % name in proc.stdout
        assert result["metrics"][name]["value"] > 0
    assert "error_rate: 0.000000" in proc.stdout


def test_traced_runs_cover_every_layer():
    busy = set()
    for workload in WORKLOADS:
        result = result_of(run_bench(workload, trace=1))
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
        busy |= {layer for layer in LAYERS
                 if result["metrics"][layer + ".self_s"]["value"] > 0}
    assert busy == set(LAYERS)


def _failed(workload, expected):
    state = workloads.setup(workload, 5, "tiny")
    res = worker.run_operations(workloads.operations(workload, state),
                                expected)
    return res["failed"], res["notes"]


def test_a_corrupted_expected_digest_is_caught():
    with open(worker.EXPECTED) as fh:
        expected = json.load(fh)
    assert _failed("series_deep", expected) == (0, [])
    key = next(k for k in expected if k.startswith("deep/rank1/"))
    expected[key] = "0" * 16
    failed, notes = _failed("series_deep", expected)
    assert failed == 1
    assert key in notes[0]


def test_a_wrong_output_fails_its_oracle(monkeypatch):
    from orbifold import sheafdata

    def always_stable(datum, params):
        return True

    monkeypatch.setattr(sheafdata, "stability_check", always_stable)
    with open(worker.EXPECTED) as fh:
        failed, notes = _failed("invariants", json.load(fh))
    assert failed > 0
    assert notes and all("always_stable failed its check" in n for n in notes)


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("series_deep", 0, cwd=tmp_path,
                     script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
