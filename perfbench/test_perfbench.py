"""Tests for the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
import harness  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workload_passes_at_tiny_size(name, seed):
    result = harness.run(name, seed, 0, trace=False, sizes=workloads.TINY)
    assert result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "output_bytes"}
    assert result["metrics"]["output_bytes"]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_replays_the_same_work(name):
    first = harness.run(name, 0, 0, trace=True, sizes=workloads.TINY)
    again = harness.run(name, 0, 0, trace=True, sizes=workloads.TINY)
    assert first["failed"] == 0 and first["problems"] == [] and again["problems"] == []
    assert first["counters"] == again["counters"]
    assert set(first["metrics"]) == set(harness.per_layer_units())


def test_staged_certificate_is_byte_identical():
    ctx = workloads.make_ctx("certify", 0, workloads.TINY, harness.OUT, {})
    staged = workloads.certify_staged(ctx, _tracer())
    assert staged["data"] == workloads.certify_direct(ctx)["data"]


def test_wrong_digest_fails_every_operation():
    digests = json.loads(harness.DIGESTS.read_text())
    digests = {k: "0" * 64 for k in digests}
    result = harness.run("certify", 0, 0, trace=False, sizes=workloads.TINY, digests=digests)
    assert result["failed"] == result["attempted"] > 0


def test_flipped_certificate_byte_fails_the_check():
    digests = json.loads(harness.DIGESTS.read_text())
    ctx = workloads.make_ctx("certify", 0, workloads.TINY, harness.OUT, digests)
    out = workloads.certify_op(ctx)
    assert workloads.certify_check(ctx, out) == []
    data = out["data"]
    at = data.index(b'"touching_count":') + len(b'"touching_count":')
    flipped = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
    assert workloads.certify_check(ctx, {**out, "data": flipped})


def test_explain_digest_mismatch_fails_the_check():
    digests = json.loads(harness.DIGESTS.read_text())
    ctx = workloads.make_ctx("explain", 0, workloads.TINY, harness.OUT, digests)
    out = workloads.explain_op(ctx)
    assert workloads.explain_check(ctx, out) == []
    assert workloads.explain_check(ctx, {**out, "svg": out["svg"] + b" "})


def test_counters_that_change_between_runs_are_reported():
    ctx = workloads.make_ctx("lemma2", 0, workloads.TINY, harness.OUT, {})
    assert harness._compare_with_earlier_runs(ctx, {"placement.lemma2_cases": 10}) == []
    assert harness._compare_with_earlier_runs(ctx, {"placement.lemma2_cases": 10}) == []
    assert harness._compare_with_earlier_runs(ctx, {"placement.lemma2_cases": 11})


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == harness.per_layer_units()
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    assert end_to_end == ["setup_s", "wall_s", "peak_rss_mb", "output_bytes"]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _tracer() -> Tracer:
    tr = Tracer()
    tr.begin_op()
    return tr
