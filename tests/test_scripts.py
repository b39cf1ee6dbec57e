"""Smoke tests: the scripts in scripts/ run against the current package."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from knotiso.scenarios import SCENARIO_BUILDERS

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_tune_moves_reproduces_frozen_kink():
    proc = _run_script("tune_moves.py", "--dense", "100")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    frozen = lines[lines.index("frozen constants:") + 3]
    assert frozen.startswith("  -> crossings=1 ")


def test_run_all_matches_every_scenario(tmp_path):
    proc = _run_script("run_all.py", "--depth", "10", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert len(list(tmp_path.glob("*.report"))) == len(SCENARIO_BUILDERS)
    # one line per scenario, with its wall time in whole milliseconds; no
    # scenario runs in under half a millisecond, so none reads 0
    lines = proc.stdout.splitlines()[: len(SCENARIO_BUILDERS)]
    timed = [re.fullmatch(r"(\S+) +ok +(\d+) ms", line) for line in lines]
    assert all(timed), lines
    assert [m[1] for m in timed] == list(SCENARIO_BUILDERS)
    assert all(int(m[2]) > 0 for m in timed), lines


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _line(seed: int, pass_s: float, ok_ratio: float) -> dict:
    metrics = {"pass_s": {"value": pass_s, "unit": "s"}, "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}
    return {"seed": seed, "line": {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}}


class TestBenchPairsSummary:
    """The pair summary of scripts/bench_pairs.py, on synthetic result lines."""

    def test_quartiles_and_pairs_won(self):
        bp = _bench_pairs()
        parent = [_line(s, p, 1.0) for s, p in zip(range(101, 106), [1.0, 2.0, 3.0, 4.0, 5.0])]
        # out of seed order, and one pair lost
        change = [_line(s, p, 1.0) for s, p in zip([105, 101, 102, 103, 104], [4.5, 0.5, 2.5, 2.9, 3.5])]
        got = bp.summarize(parent, change, {"pass_s": ("lower", 0.2), "ok_ratio": ("higher", 0.02)})
        assert got["pass_s"]["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert got["pass_s"]["change"] == {"q1": 2.5, "median": 2.9, "q3": 3.5}
        assert got["pass_s"]["pairs_won"] == 4  # seeds 101, 103, 104, 105; 102 lost
        assert got["pass_s"]["pairs"] == 5
        # equal values win no pair in either direction
        assert got["ok_ratio"]["pairs_won"] == 0

    def test_higher_is_better_and_unpaired_seeds_dropped(self):
        bp = _bench_pairs()
        parent = [_line(1, 1.0, 0.5), _line(2, 1.0, 0.9)]
        change = [_line(1, 1.0, 0.6), _line(3, 1.0, 1.0)]
        got = bp.summarize(parent, change, {"ok_ratio": ("higher", 0.02), "missing": ("lower", 0.2)})
        assert got["ok_ratio"]["pairs"] == 1 and got["ok_ratio"]["pairs_won"] == 1
        assert got["ok_ratio"]["parent"]["median"] == 0.5
        assert "missing" not in got
        with pytest.raises(ValueError):
            bp.summarize(parent, [_line(3, 1.0, 1.0)], {"ok_ratio": ("higher", 0.02)})

    def test_run_length_and_directions_come_from_the_benchmark(self):
        seconds, metrics = _bench_pairs().read_benchmark(ROOT / "BENCHMARK.json")
        assert seconds == 17
        assert metrics["pass_s"] == ("lower", 0.2) and metrics["ok_ratio"] == ("higher", 0.02)
        assert metrics["peak_rss_mb"] == ("lower", 0.1)

    def test_claimable_needs_nine_tenths_won_and_a_gap_beyond_the_iqr(self):
        bp = _bench_pairs()
        spec = {"pass_s": ("lower", 0.2), "ok_ratio": ("higher", 0.02)}
        parent = [_line(s, 1.0 + 0.01 * (s % 5), 0.5) for s in range(1, 11)]
        # parent pass_s: quartiles 1.01 and 1.03, so an IQR of 0.02
        assert bp.summarize(parent, parent, spec)["pass_s"]["parent"]["q3"] == pytest.approx(1.03)

        def pass_s(change_values):
            change = [_line(s, v, 0.5) for s, v in zip(range(1, 11), change_values)]
            return bp.summarize(parent, change, spec)["pass_s"]

        # every pair won, median 0.9 against 1.02: claimable
        got = pass_s([0.9] * 10)
        assert got["pairs_won"] == 10 and got["claimable"] and got["within_bound"]
        # nine of ten won still claims; eight of ten does not
        assert pass_s([0.9] * 9 + [2.0])["claimable"]
        assert not pass_s([0.9] * 8 + [2.0, 2.0])["claimable"]
        # every pair won by 1.5% of the parent: a median gap inside the IQR
        got = pass_s([0.985 * (1.0 + 0.01 * (s % 5)) for s in range(1, 11)])
        assert got["pairs_won"] == 10 and not got["claimable"]
        # equal values: nothing to claim, and no worse than the bound
        got = bp.summarize(parent, parent, spec)["ok_ratio"]
        assert not got["claimable"] and got["within_bound"]

    def test_within_bound_is_a_fraction_of_the_parent_median(self):
        bp = _bench_pairs()
        spec = {"pass_s": ("lower", 0.2), "ok_ratio": ("higher", 0.02)}
        parent = [_line(s, 10.0, 0.9) for s in range(1, 5)]

        def summary(pass_s, ok_ratio):
            change = [_line(s, pass_s, ok_ratio) for s in range(1, 5)]
            return bp.summarize(parent, change, spec)

        # lower is better: up to 20% slower is within, more is not
        assert summary(11.9, 0.9)["pass_s"]["within_bound"]
        assert not summary(12.1, 0.9)["pass_s"]["within_bound"]
        # higher is better: down to 2% lower is within, more is not
        assert summary(10.0, 0.8830)["ok_ratio"]["within_bound"]
        assert not summary(10.0, 0.8810)["ok_ratio"]["within_bound"]
        # a better median is always within, and against a parent with no
        # spread, four of four pairs won is a claim
        got = summary(5.0, 1.0)
        assert got["pass_s"]["within_bound"] and got["ok_ratio"]["within_bound"]
        assert got["pass_s"]["claimable"] and got["ok_ratio"]["claimable"]

    def test_seed_ranges(self):
        bp = _bench_pairs()
        assert bp.parse_seeds("101-104") == [101, 102, 103, 104]
        assert bp.parse_seeds("1,4-5,9") == [1, 4, 5, 9]
