import dataclasses
import filecmp
from pathlib import Path

import numpy as np
import pytest

from knotiso import cli
from knotiso.cli import RunConfig, main
from knotiso.diagram import count_crossings
from knotiso.geometry import read_curve
from knotiso.scenarios import ExpectedVerdicts, build_countable_r1


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(scenario="x", depth=0)
        with pytest.raises(ValueError):
            RunConfig(scenario="x", tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(scenario="x", times=(0.5, 0.2))
        with pytest.raises(ValueError):
            RunConfig(scenario="x", horizon=1)

    @pytest.mark.parametrize("t", [-0.1, 1.5, float("nan"), float("inf"), -float("inf")])
    def test_times_outside_unit_interval_rejected(self, t):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RunConfig(scenario="x", times=(0.0, t))

    def test_report_name(self):
        cfg = RunConfig(scenario="countable_r1", depth=7, seed=3)
        assert cfg.report_name == "countable_r1_7_3.report"


class TestRunVerb:
    def test_matching_run_exits_zero(self, tmp_path, capsys):
        status = main(
            [
                "run",
                "--scenario",
                "countable_r1",
                "--depth",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "scenario: countable_r1" in out
        assert "match: true" in out
        assert (tmp_path / "countable_r1_10_0.report").exists()
        snap = read_curve(tmp_path / "countable_r1_10_0.curve")
        # 10 of the 20 loops untied
        assert count_crossings(snap) == 10

    def test_report_fields_present(self, tmp_path):
        main(["run", "--scenario", "fox_remarkable", "--out", str(tmp_path)])
        text = (tmp_path / "fox_remarkable_20_0.report").read_text()
        for field in (
            "scenario:",
            "depth:",
            "horizon:",
            "tol:",
            "seed:",
            "tail_diameters:",
            "containment_ok:",
            "disjoint_supports:",
            "verdict:",
            "sup_deviation:",
            "min_image_separation:",
            "unsettled_points:",
            "budget_exhausted:",
            "injectivity:",
            "ball_factoring:",
            "expected:",
            "computed:",
            "match:",
        ):
            assert field in text, field
        assert "injectivity: fail" in text
        assert "expected: pass/fail" in text

    def test_mismatched_expectation_exits_one(self, tmp_path, monkeypatch):
        def broken():
            s = build_countable_r1()
            return dataclasses.replace(s, expected=ExpectedVerdicts("pass", None, "fail"))

        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", broken)
        status = main(
            ["run", "--scenario", "countable_r1", "--depth", "5", "--out", str(tmp_path)]
        )
        assert status == 1

    def test_unknown_scenario_exits_two(self, tmp_path, capsys):
        status = main(["run", "--scenario", "nope", "--out", str(tmp_path)])
        assert status == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_io_error_exits_three(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        status = main(
            ["run", "--scenario", "countable_r1", "--out", str(blocker / "sub")]
        )
        assert status == 3

    def test_too_deep_run_exits_four(self, tmp_path, capsys):
        # the depth-55 stage boxes collapse in double precision
        status = main(
            ["run", "--scenario", "countable_r1", "--depth", "55", "--out", str(tmp_path)]
        )
        assert status == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reports_append(self, tmp_path):
        argv = ["run", "--scenario", "1d_counterexample", "--out", str(tmp_path)]
        main(argv)
        once = (tmp_path / "1d_counterexample_20_0.report").read_text()
        main(argv)
        twice = (tmp_path / "1d_counterexample_20_0.report").read_text()
        assert twice == once + once


class TestCheckVerb:
    def test_passing_scenario(self, capsys):
        status = main(["check", "--scenario", "countable_r1"])
        assert status == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "verdict: pass"
        rows = lines[:-1]
        assert len(rows) == 20
        diams = [float(r.split()[1]) for r in rows]
        assert all(a > b for a, b in zip(diams, diams[1:]))

    def test_failing_scenario(self, capsys):
        status = main(["check", "--scenario", "trefoil_chain_extended"])
        assert status == 1
        assert "verdict: fail (condition 1)" in capsys.readouterr().out

    def test_horizon_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--scenario", "countable_r1", "--horizon", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--scenario", "countable_r1", "--depth", "3"],
        ["frames", "--scenario", "countable_r1", "--times", "0", "--seed", "1"],
        ["run", "--scenario", "countable_r1", "--times", "0.5"],
    ],
)
def test_flag_a_verb_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def frames_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("frames")
    status = main(
        [
            "frames",
            "--scenario",
            "countable_r1",
            "--depth",
            "10",
            "--times",
            "0,0.5,1",
            "--out",
            str(out),
        ]
    )
    assert status == 0
    return out


class TestFramesVerb:
    def test_files_emitted_in_time_order(self, frames_dir):
        for i in range(3):
            assert (frames_dir / f"countable_r1_frame_{i:03d}.curve").exists()
            svg = (frames_dir / f"countable_r1_frame_{i:03d}.svg").read_text()
            assert svg.startswith("<svg")

    def test_time_zero_frame_is_initial_curve(self, frames_dir):
        frame0 = read_curve(frames_dir / "countable_r1_frame_000.curve")
        dense = build_countable_r1().initial_curve.densified(0.01)
        assert frame0.vertices == dense.vertices

    def test_time_one_frame_has_ten_fewer_loops(self, frames_dir):
        frame = read_curve(frames_dir / "countable_r1_frame_002.curve")
        assert count_crossings(frame) == 10

    def test_intermediate_frame_partially_untied(self, frames_dir):
        frame = read_curve(frames_dir / "countable_r1_frame_001.curve")
        # t = 0.5 is the first seam: exactly one loop removed
        assert count_crossings(frame) == 19

    def test_frame_curves_roundtrip(self, frames_dir, tmp_path):
        from knotiso.geometry import write_curve

        frame = read_curve(frames_dir / "countable_r1_frame_001.curve")
        write_curve(frame, tmp_path / "copy.curve")
        assert read_curve(tmp_path / "copy.curve").vertices == frame.vertices

    def test_missing_times_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--scenario", "countable_r1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: frames needs --times" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("times", ["0.5,1.5", "-0.5", "0,nan", "inf"])
    def test_bad_time_is_usage_error_and_writes_nothing(self, tmp_path, capsys, times):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--scenario", "countable_r1", "--times", times, "--out", str(out)])
        assert exc.value.code == 2
        assert "frame times must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_frame_exits_four(self, tmp_path, capsys):
        # t = 0.9 is in stage 4, where the fox projection is degenerate
        status = main(
            ["frames", "--scenario", "fox_remarkable", "--times", "0.9", "--out", str(tmp_path)]
        )
        assert status == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_reports_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(
                [
                    "run",
                    "--scenario",
                    "recursive_r1",
                    "--depth",
                    "10",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
        assert filecmp.cmp(
            a / "recursive_r1_10_7.report", b / "recursive_r1_10_7.report", shallow=False
        )
        assert filecmp.cmp(
            a / "recursive_r1_10_7.curve", b / "recursive_r1_10_7.curve", shallow=False
        )

    def test_seed_changes_probe_grid_not_verdict(self, tmp_path):
        for seed in ("0", "1"):
            status = main(
                [
                    "run",
                    "--scenario",
                    "1d_counterexample",
                    "--seed",
                    seed,
                    "--out",
                    str(tmp_path),
                ]
            )
            assert status == 0
        r0 = (tmp_path / "1d_counterexample_20_0.report").read_text()
        r1 = (tmp_path / "1d_counterexample_20_1.report").read_text()
        assert "match: true" in r0 and "match: true" in r1
        assert r0 != r1  # different sampled grids


class TestProbeScenario:
    def test_probe_deterministic(self):
        s = build_countable_r1()
        cfg = RunConfig(scenario="countable_r1", depth=8)
        a = cli.probe_scenario(s, cfg)
        b = cli.probe_scenario(build_countable_r1(), cfg)
        assert a == b

    def test_census_all_settled_for_r1(self):
        s = build_countable_r1()
        cfg = RunConfig(scenario="countable_r1", depth=8)
        probe = cli.probe_scenario(s, cfg)
        assert probe.unsettled_points == 0
        assert not probe.budget_exhausted
