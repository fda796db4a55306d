"""Smoke test of the benchmark itself, at a tiny size (p=5, a few ops).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from tracer import PAIR_ROUTES  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "verify-p13": {"kind": "verify", "p": 5, "max_length": 2, "samples": 20, "passes": 2, "setups": 3},
    "mul-p1009": {"kind": "mul", "p": 5, "max_length": 3, "requests": 60, "passes": 2, "setups": 3},
    "session-p31": {
        "kind": "session", "p": 5, "max_length": 3, "ops": 40, "per_degree": 3, "hecke": 3,
        "passes": 3, "setups": 3,
    },
}


def tiny_run(name: str, trace: int, tmp_path: Path, digest: str | None = None) -> dict:
    result = run.measure(TINY[name], 1, 0.01, trace, digest, tmp_path / "spans.jsonl")
    return run.report(name, 1, trace, result)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    final = tiny_run(name, trace, tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in final["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", ["mul-p1009", "session-p31"])
def test_tampered_digest_fails(name, tmp_path):
    final = tiny_run(name, 0, tmp_path, digest="0" * 64)
    assert final["failed"] > 0 and not final["correct"]


def test_metrics_must_match_benchmark_json():
    metrics = {m["name"]: 1.0 for m in BENCHMARK["per_layer"]}
    del metrics["verify.suite.e0.s"]
    metrics["verify.suite.renamed.s"] = 1.0
    result = {"metrics": metrics, "attempted": 1, "failed": 0, "failures": []}
    with pytest.raises(run.BenchError, match="verify.suite.e0.s.*verify.suite.renamed.s"):
        run.report("verify-p13", 1, 1, result)


def test_traced_gauges_read_the_workload(tmp_path):
    mul = tiny_run("mul-p1009", 1, tmp_path)["metrics"]
    assert mul["hecke.mul.calls"]["value"] == 0
    assert mul["grammar.parse.calls"]["value"] == 2 * TINY["mul-p1009"]["requests"]
    session = tiny_run("session-p31", 1, tmp_path)["metrics"]
    assert session["product.pair.hit_ratio"]["value"] == 1.0
    verify = tiny_run("verify-p13", 1, tmp_path)["metrics"]
    assert 0 < verify["product.pair.hit_ratio"]["value"] < 1
    misses = sum(verify[f"product.pair.miss.{r}"]["value"] for r in PAIR_ROUTES)
    calls = verify["product.pair.calls"]["value"]
    assert misses == round(calls * (1 - verify["product.pair.hit_ratio"]["value"]))


def test_meter_scales_each_op_by_the_readings_around_it(monkeypatch):
    readings = iter([0.001, 0.003, 0.002])
    monkeypatch.setattr(child, "reading", lambda: next(readings))
    meter = child.Meter(sample=False)  # reads 0.001 as the pass starts
    meter.record(0.05)
    meter.sample()  # reads 0.003 while the second op runs
    meter.record(0.1)
    meter.record(0.2)
    # the pass ends with a reading of 0.002; each op is scaled by 1 ms over
    # the mean of the last reading before it, those during it and the next one
    assert meter.times() == pytest.approx([0.05 * 2 / 4, 0.1 * 3 / 6, 0.2 * 2 / 5])
