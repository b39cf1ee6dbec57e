"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# a few cheap ops covering both verbs, the census, and one degenerate frame
FOX_STAGE4 = workloads._stage_time(4, 0.5)
SMALL_OPS = [
    Op("run", "recursive_r1", 20, 20, 7),
    Op("run", "1d_counterexample", 20, 20, 7),
    Op("frames", "recursive_r1", 20, 20, 7, (0.0,)),
    Op("frames", "recursive_r1", 20, 20, 7, (0.6,)),
    Op("frames", "fox_remarkable", 20, 20, 7, (FOX_STAGE4,)),
]

COUNT_METRICS = [name for name, unit, _ in tracer.PER_LAYER_METRICS if unit in ("count", "bytes")]


def _measure(tmp_path: Path, name: str, trace: bool) -> harness.Measurement:
    work = tmp_path / name
    work.mkdir()
    return harness.measure(SMALL_OPS, ROOT / "src", work, passes=1, trace=trace)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return _measure(tmp, "a", True), _measure(tmp, "b", True)


def test_count_metrics_repeat_exactly(traced_twice):
    a, b = (harness.per_layer(m) for m in traced_twice)
    assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}
    # the small ops reach the census, the kernels and the degenerate frame
    assert a["census.settled"] > 0
    assert a["union_diameter.corner_pairs"] > 0
    assert a["apply_truncated.stage_applications"] > 0
    assert a["cone.rows"] > 0
    assert a["find_crossings.degenerate"] == 1


def test_traced_and_untraced_reports_match(traced_twice, tmp_path):
    plain = _measure(tmp_path, "plain", False)
    traced = traced_twice[0]

    def shas(records):
        return {(r.key, r.sha256) for r in records if r.sha256}

    assert shas(plain.all_ops()) == shas(traced.all_ops())
    assert shas(r for p in traced.traced for r in p) == shas(r for p in plain.passes for r in p)


def test_fox_degenerate_frame_is_a_failed_op_not_a_wrong_one(traced_twice):
    m = traced_twice[0]
    bad = [r for r in m.all_ops() if r.status != "ok"]
    assert bad and all(r.status == "error" and "degenerate" in r.detail for r in bad)
    assert {r.key for r in bad} == {SMALL_OPS[-1].key}


def test_tail_has_ten_samples_beyond_it():
    xs = [float(x) for x in range(40, 0, -1)]
    percentile, value = harness.tail(xs)
    assert (percentile, value) == (75.0, 30.0)
    assert sum(x > value for x in xs) == 10
    with pytest.raises(ValueError):
        harness.tail(xs[:10])


def test_workloads_are_fixed_by_seed():
    for make in workloads.WORKLOADS.values():
        assert make(3) == make(3)
    film = workloads.frames_film(3)
    assert len(film) == 36 and film != workloads.frames_film(4)
    for k, op in enumerate(film[1:8], start=1):
        (t,) = op.times
        assert 1 - 2.0 ** (1 - k) < t < 1 - 2.0**-k


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER_METRICS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verdict_sweep",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
