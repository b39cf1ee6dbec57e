"""Smoke tests: the scripts in scripts/ run against the current package."""
import importlib.util
import json
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


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_all_reports_each_unbuildable_scenario_and_keeps_going(tmp_path, capsys, monkeypatch):
    # a scenario whose map cannot be built exits 4 with its one line, and
    # the others still run and match
    def unbuildable():
        raise ValueError("affine scale on axis x is 0.0, not finite and nonzero")

    monkeypatch.setitem(SCENARIO_BUILDERS, "countable_r1", unbuildable)
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--depth", "10", "--out", str(tmp_path)])
    assert _load_script("run_all").main() == 1
    lines = capsys.readouterr().out.splitlines()[: len(SCENARIO_BUILDERS)]
    assert [line.split()[0] for line in lines] == list(SCENARIO_BUILDERS)
    row = dict(zip(SCENARIO_BUILDERS, lines))
    error = "error: affine scale on axis x is 0.0, not finite and nonzero"
    assert re.fullmatch(rf"countable_r1 +exit 4 +\d+ ms  {error}", row["countable_r1"])
    others = [name for name in SCENARIO_BUILDERS if name != "countable_r1"]
    for name in others:
        assert re.fullmatch(rf"{name} +ok +\d+ ms", row[name])
    assert sorted(p.name for p in tmp_path.glob("*.report")) == sorted(f"{n}_10_0.report" for n in others)


def test_run_all_bad_flag_is_usage_error(tmp_path):
    out = tmp_path / "out"
    proc = _run_script("run_all.py", "--horizon", "1", "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "horizon must be >= 2, got 1" in proc.stderr
    assert proc.stdout == "" and not out.exists()


def _bench_pairs():
    return _load_script("bench_pairs")


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

    def test_moved_layers_lists_what_changed_largest_first(self):
        def line(**values):
            return {name: {"value": v, "unit": "count"} for name, v in values.items()}

        parent = line(pass_s=1.0, a=100.0, b=10.0, c=5.0, d=0.0, e=8.0)
        change = line(pass_s=0.5, a=25.0, b=30.0, c=5.0, d=3.0, e=0.0)
        moved = _bench_pairs().moved_layers([parent], [change], {"pass_s"})
        # a fell 4x, b rose 3x, and e fell to 0, which ranks as a rise by
        # the same 8 would, 2x; c is unchanged, d had no parent value
        assert [m["metric"] for m in moved] == ["a", "b", "e"]
        assert moved[0] == {"metric": "a", "parent": 100.0, "change": 25.0, "ratio": 0.25}

    def test_moved_layers_leaves_out_whole_pass_times_and_ranks_a_sign_change_by_size(self):
        def line(values):
            return {name: {"value": v, "unit": "s"} for name, v in values.items()}

        parent = line({"trace.pass_s": 0.50, "trace.overhead_s": -0.036, "render_svg.s": 0.191,
                       "cone.s": 0.010, "diagram.self_s": 0.100})
        change = line({"trace.pass_s": 0.40, "trace.overhead_s": 0.103, "render_svg.s": 0.129,
                       "cone.s": -0.001, "diagram.self_s": 0.010})
        moved = _bench_pairs().moved_layers([parent], [change], set())
        # the traced pass's time and overhead are noise, however far they
        # move; cone.s changed sign by 1.1 times its size, which ranks as a
        # rise of 2.1x would, between a 10x fall and a 1.48x one
        assert [m["metric"] for m in moved] == ["diagram.self_s", "cone.s", "render_svg.s"]
        assert moved[1]["ratio"] == pytest.approx(-0.1)

    def test_moved_layers_reads_the_medians_of_several_traced_runs(self):
        def lines(unit, **values):
            return [{name: {"value": v[i], "unit": unit} for name, v in values.items()} for i in range(5)]

        # timed: the parent's quartiles are 2 and 4
        parent = lines("s", a=[1.0, 2.0, 3.0, 4.0, 5.0], b=[1.0, 2.0, 3.0, 4.0, 5.0], c=[3.0] * 5)
        change = lines("s", a=[4.0, 1.0, 3.5, 9.0, 2.0], b=[5.0, 4.5, 9.0, 0.5, 1.0], c=[3.0] * 4 + [0.0])
        moved = _bench_pairs().moved_layers(parent, change, set())
        # a's median 3.5 lies inside [2, 4], so only b moved, by its median
        # 4.5 against 3; c's one outlier leaves its median at 3
        assert moved == [{"metric": "b", "parent": 3.0, "change": 4.5, "ratio": 1.5}]
        # a count moves whenever its median differs, however little
        parent = lines("count", n=[10.0, 10.0, 10.0, 12.0, 12.0], m=[7.0] * 5)
        change = lines("count", n=[10.0, 11.0, 11.0, 12.0, 12.0], m=[7.0, 7.0, 7.0, 9.0, 9.0])
        moved = _bench_pairs().moved_layers(parent, change, set())
        assert [(m["metric"], m["parent"], m["change"]) for m in moved] == [("n", 10.0, 11.0)]

    def test_seed_ranges(self):
        bp = _bench_pairs()
        assert bp.parse_seeds("101-104") == [101, 102, 103, 104]
        assert bp.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def test_bench_pairs_runs_each_tree_from_source_without_bytecode(tmp_path, monkeypatch):
    """Every run of a tree starts with no ``__pycache__`` under its ``src``
    and with ``PYTHONDONTWRITEBYTECODE=1``, so neither side imports bytecode
    that an earlier run compiled."""
    bp = _bench_pairs()
    tree = tmp_path / "tree"
    caches = [tree / "src" / "__pycache__", tree / "src" / "knotiso" / "__pycache__"]
    kept = tree / "perfbench" / "__pycache__"
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs, [c.exists() for c in caches], kept.exists()))
        detail = {"machine": {"cpu": "x"}, "report_sha256": {"run:a": "00"}, "failures": []}
        lines = [{"detail": detail}, {"metrics": {"pass_s": {"value": 1.0}}}]
        return subprocess.CompletedProcess(cmd, 0, "\n".join(map(json.dumps, lines)), "")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    for _ in range(2):
        for cache in [*caches, kept]:
            cache.mkdir(parents=True, exist_ok=True)
            (cache / "cli.cpython-311.pyc").write_bytes(b"")
        got = bp.run_side(tree, "frames_film", 3, 17, trace=True)
        assert got == {
            "line": {"metrics": {"pass_s": {"value": 1.0}}},
            "machine": {"cpu": "x"},
            "outputs": {"report_sha256": {"run:a": "00"}, "failures": []},
        }
    assert len(calls) == 2
    for cmd, kwargs, cached, perfbench_cached in calls:
        assert cmd[1] == str(tree / "perfbench" / "run.py")
        assert cmd[2:] == ["--workload", "frames_film", "--seed", "3", "--seconds", "17", "--trace", "1"]
        assert kwargs["cwd"] == tree and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert kwargs["env"]["PATH"] == os.environ["PATH"]
        # only the package's bytecode is removed
        assert cached == [False, False] and perfbench_cached


def test_bench_pairs_records_whether_both_trees_gave_the_same_outputs(tmp_path, monkeypatch):
    """A workload's entry holds ``outputs_match`` and the op keys whose
    report hash or failure differs at some seed, read off the detail lines
    of both trees' runs, and the line count of each tree's package; the
    traced runs flip the side that goes first with each trace seed."""
    bp = _bench_pairs()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for lines, tree in zip((3, 2), trees.values()):
        (tree / "src" / "knotiso").mkdir(parents=True)
        (tree / "src" / "knotiso" / "engine.py").write_text("x = 1\n" * lines)
        (tree / "src" / "knotiso" / "notes.txt").write_text("not code\n")
    (trees["change"] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # what the change tree gives differently, per seed, and the traced runs
    changed, traced = {}, []

    def fake_run(cmd, **kwargs):
        if cmd[1] == "-c":
            return subprocess.CompletedProcess(cmd, 0, "{}", "")  # a replay with no frames op
        seed = int(cmd[cmd.index("--seed") + 1])
        if cmd[-1] == "1":
            traced.append((seed, kwargs["cwd"].name))
        hashes = {"run:a:20:20:0:": "aa", "run:b:20:20:0:": "bb"}
        failures = ["frames:fox:20:20:1:0.9 error: ValueError: degenerate"]
        if kwargs["cwd"] == trees["change"]:
            hashes.update(changed.get(seed, {}).get("hashes", {}))
            failures += changed.get(seed, {}).get("failures", [])
        detail = {"machine": {"cpu": "x"}, "report_sha256": hashes, "failures": failures}
        line = {"metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}
        return subprocess.CompletedProcess(cmd, 0, "\n".join(map(json.dumps, [{"detail": detail}, line])), "")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)

    def entry(label, *more):
        argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"])]
        assert bp.main(argv + ["--workload", "w", "--seeds", "1-3", "--label", label, *more]) == 0
        return json.loads((tmp_path / f"BENCH_{label}.json").read_text())["workloads"]["w"]

    got = entry("same")
    assert got["outputs_match"] is True and got["mismatched_ops"] == []
    assert got["src_lines"] == {"parent": 3, "change": 2} and "traced" not in got
    got = entry("traced", "--trace-seed", "7-9")
    assert traced == [(7, "parent"), (7, "change"), (8, "change"), (8, "parent"), (9, "parent"), (9, "change")]
    assert got["traced"]["seeds"] == [7, 8, 9] and len(got["traced"]["change"]) == 3
    changed[2] = {"hashes": {"run:b:20:20:0:": "b2"}}
    changed[3] = {"failures": ["frames:c:20:20:1:1.0 wrong: x"]}
    got = entry("differs")
    assert got["outputs_match"] is False
    assert got["mismatched_ops"] == ["frames:c:20:20:1:1.0", "run:b:20:20:0:"]


_FAKE_WORKLOADS = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Op:
    verb: str
    scenario: str
    depth: int
    times: tuple

    @property
    def key(self):
        return f"{self.verb}:{self.scenario}:{self.depth}:{','.join(map(repr, self.times))}"

def film(seed):
    return [Op("run", "a", 20, ()), Op("frames", "a", 20, (0.5,)), Op("frames", "b", 5, (0.0, 1.0))]

WORKLOADS = {"film": film}
"""

# frames of a fake package: one curve file and one drawing per time, the
# drawing's last byte set by INK, and exit 4 for scenario "b" at depth 5
_FAKE_CLI = """
import sys
from pathlib import Path
INK = {ink!r}

def main(argv):
    args = dict(zip(argv[1::2], argv[2::2]))
    if args["--scenario"] == "b":
        print("error: projection is degenerate", file=sys.stderr)
        return 4
    out = Path(args["--out"])
    out.mkdir(parents=True)
    for i, t in enumerate(args["--times"].split(",")):
        (out / f"a_frame_{{i:03d}}.curve").write_text(t)
        (out / f"a_frame_{{i:03d}}.svg").write_text("<svg>" + INK)
    return 0
"""


def test_bench_pairs_replays_frames_and_finds_one_svg_byte(tmp_path):
    """Each tree replays the workload's frames ops in one process of its
    own ``src`` and ``perfbench/workloads.py``; two trees whose drawings
    differ in one byte mismatch at exactly the op that drew it."""
    bp = _bench_pairs()
    trees = {}
    for side, ink in (("parent", "x"), ("same", "x"), ("change", "y")):
        tree = trees[side] = tmp_path / side
        (tree / "src" / "knotiso").mkdir(parents=True)
        (tree / "src" / "knotiso" / "__init__.py").write_text("")
        (tree / "src" / "knotiso" / "cli.py").write_text(_FAKE_CLI.format(ink=ink))
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "workloads.py").write_text(_FAKE_WORKLOADS)
    got = {side: bp.replay(tree, "film", 7) for side, tree in trees.items()}
    assert got["parent"]["frames:a:20:0.5"]["status"] == 0
    assert sorted(got["parent"]["frames:a:20:0.5"]["files"]) == ["a_frame_000.curve", "a_frame_000.svg"]
    assert got["parent"]["frames:b:5:0.0,1.0"] == {
        "status": 4, "stderr": "error: projection is degenerate\n", "files": {}
    }
    assert len(got["parent"]) == 2  # the run op is not replayed

    def outputs(side):
        return {7: {"report_sha256": {}, "failures": [], "frames": got[side]}}

    assert bp.mismatched_ops(outputs("parent"), outputs("same")) == []
    assert bp.mismatched_ops(outputs("parent"), outputs("change")) == ["frames:a:20:0.5"]
