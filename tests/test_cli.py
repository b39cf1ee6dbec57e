import dataclasses
import filecmp
import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from knotiso import cli, diagram, engine
from knotiso.canonical import conjugated_insert
from knotiso.cli import RunConfig, main
from knotiso.engine import COMPACTNESS, UNIFORM_CONVERGENCE, MoveSequence, Similarity
from knotiso.geometry import Box, PLCurve, read_curve
from knotiso.scenarios import ExpectedVerdicts, build_countable_r1

from oracles import count_crossings
from test_frames_golden import GOLDEN, TIMES

SRC = Path(__file__).resolve().parent.parent / "src"


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
            return dataclasses.replace(s, expected=ExpectedVerdicts(None, "fail"))

        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", broken)
        status = main(
            ["run", "--scenario", "countable_r1", "--depth", "5", "--out", str(tmp_path)]
        )
        assert status == 1

    @staticmethod
    def _walled(failing):
        """countable_r1 with its container walled at x = 1.75, through V_1
        (x in [1.71875, 1.78125]), declared to fail the hypothesis failing:
        its tails still shrink, and only containment fails."""
        s = build_countable_r1()
        c = s.moves.container
        moves = MoveSequence(Box(c.lo, (1.75, *c.hi[1:])), similarity=s.moves.similarity)
        return dataclasses.replace(s, moves=moves, expected=ExpectedVerdicts(failing, "pass"))

    def test_a_wall_through_v1_fails_condition_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", lambda: self._walled(COMPACTNESS))
        assert main(["check", "--scenario", "countable_r1"]) == 1
        assert capsys.readouterr().out.endswith("\nverdict: fail (condition 2)\n")

    @pytest.mark.parametrize(
        "failing,status", [(COMPACTNESS, 0), (UNIFORM_CONVERGENCE, 1)]
    )
    def test_run_matches_on_the_hypothesis_that_fails(
        self, tmp_path, capsys, monkeypatch, failing, status
    ):
        # both declarations read "expected: fail/pass"; only the one that
        # names compactness, the hypothesis the walled stream fails, matches
        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", lambda: self._walled(failing))
        argv = ["run", "--scenario", "countable_r1", "--depth", "5", "--out", str(tmp_path)]
        assert main(argv) == status
        lines = capsys.readouterr().out.splitlines()
        assert "containment_ok: false" in lines
        assert "verdict: fail (condition 2)" in lines
        assert lines[-3:] == [
            "expected: fail/pass",
            "computed: fail/pass",
            f"match: {str(status == 0).lower()}",
        ]

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

    def test_a_map_that_cannot_be_built_exits_four(self, tmp_path, capsys, monkeypatch):
        # a map that cannot be built or evaluated is not a verdict mismatch:
        # one error line, no report and no snapshot
        def unbuildable():
            raise ValueError("affine scale on axis x is 0.0, not finite and nonzero")

        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", unbuildable)
        out = tmp_path / "out"
        assert main(["run", "--scenario", "countable_r1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: affine scale on axis x is 0.0, not finite and nonzero\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_ball_too_small_to_hold_exits_four(self, tmp_path, capsys, monkeypatch):
        # a ball stream whose p lies the least subnormal inside V_1's wall:
        # half that distance rounds to 0, and no empty ball is reported
        v1 = Box((0, 0, 0), (1, 1, 1))
        sim = Similarity(conjugated_insert(v1), (5e-324, 0.5, 0.5), 0.5)
        moves = MoveSequence(Box(v1.lo - 1.0, v1.hi + 1.0), similarity=sim)
        s = dataclasses.replace(build_countable_r1(), moves=moves)
        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", lambda: s)
        out = tmp_path / "out"
        assert main(["run", "--scenario", "countable_r1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: no ball about p fits strictly inside the first region\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "check"])
    def test_a_table_too_large_to_allocate_exits_four(self, tmp_path, capsys, monkeypatch, verb):
        # a deep horizon's tail table is an h x h array; a failed allocation
        # is an evaluation error, not a verdict mismatch, and none is made here
        text = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def unallocatable(seq, horizon, threshold):
            raise MemoryError(text)

        monkeypatch.setattr(cli, "check_hypotheses", unallocatable)
        out = tmp_path / "out"
        argv = [verb, "--scenario", "countable_r1", "--horizon", "100000"]
        assert main(argv + (["--out", str(out)] if verb == "run" else [])) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {text}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["49", "55", "100", "1000"])
    @pytest.mark.parametrize("scenario", sorted(cli.SCENARIO_BUILDERS))
    def test_every_scenario_matches_deep(self, tmp_path, capsys, scenario, depth):
        # a declared stream's truncation forms no box past V_1's hull, so no
        # frame collapses or overflows at any depth
        argv = ["run", "--scenario", scenario, "--depth", depth, "--out", str(tmp_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("match: true\n")
        assert (tmp_path / f"{scenario}_{depth}_0.curve").exists()

    def test_trefoil_chain_matches_where_its_boxes_nearly_touch(self, tmp_path, capsys):
        # from stage 47 on its float boxes come within an ulp of each other
        # along x
        argv = ["run", "--scenario", "trefoil_chain", "--depth", "47", "--horizon", "47"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("match: true\n")

    @pytest.mark.parametrize(
        "scenario,depth,horizon",
        [
            ("fox_remarkable", "511", "20"),
            ("fox_remarkable", "520", "20"),
            ("fox_remarkable", "300", "300"),
            ("fox_remarkable", "600", "600"),
            ("fox_remarkable", "1100", "1100"),
            ("recursive_r1", "1000", "1000"),
            ("recursive_r1", "1025", "20"),
            ("recursive_r1", "1100", "1100"),
        ],
    )
    def test_self_similar_streams_match_deep(self, tmp_path, capsys, scenario, depth, horizon):
        # every stage is stage 1 at its own level, nested supports too small
        # to square still factor, and the factoring reads V_1..V_n0 alone,
        # so supports that round onto p past float resolution go unread
        argv = ["run", "--scenario", scenario, "--depth", depth, "--horizon", horizon]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("match: true\n")

    @pytest.mark.parametrize("horizon", ["2", "3"])
    def test_short_horizon_reports_no_n0_and_exits_by_verdict(self, tmp_path, capsys, horizon):
        # V_1..V_3 of recursive_r1 are not yet inside the ball: the report
        # is whole, and the unmet shrinking condition is a mismatch
        argv = ["run", "--scenario", "recursive_r1", "--horizon", horizon, "--out", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        text = (tmp_path / "recursive_r1_20_0.report").read_text()
        assert text == captured.out
        assert "ball_factoring: {epsilon: 0.026250000000000002, n0: none}\n" in text
        assert "computed: fail/pass\nmatch: false\n" in text

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
    def test_bad_tol_is_usage_error_and_writes_nothing(self, tmp_path, capsys, tol):
        # nan would pass every tail check, so a stream whose tail diameters
        # stay 1 would report a passing verdict; a value with a leading
        # dash reads the same after a space as after "="
        out = tmp_path / "out"
        for spelled in ([f"--tol={tol}"], ["--tol", tol]):
            argv = ["run", "--scenario", "1d_counterexample", *spelled, "--out", str(out)]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "tol must be positive and finite" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_seed_is_usage_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "countable_r1", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "scenario,horizon",
        [
            ("fox_remarkable", "511"),
            ("countable_r1", "100"),
            ("trefoil_chain", "100"),
            ("recursive_r1", "1041"),
            ("fox_remarkable", "540"),
        ],
    )
    def test_deep_horizon_reads_only_supports(self, capsys, scenario, horizon):
        # past the depth where these streams' frames or squish geometry
        # fail to build, the supports V_1..V_horizon are still boxes (the
        # last ones subnormal), and check builds no stage map
        status = main(["check", "--scenario", scenario, "--horizon", horizon])
        assert status == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[-1] == "verdict: pass"
        assert len(lines) == int(horizon) + 1
        assert captured.err == ""

    def test_horizon_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--scenario", "countable_r1", "--horizon", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-6"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol):
        for spelled in ([f"--tol={tol}"], ["--tol", tol]):
            with pytest.raises(SystemExit) as exc:
                main(["check", "--scenario", "1d_counterexample", *spelled])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "tol must be positive and finite" in captured.err
            assert "verdict" not in captured.out


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
        dense = build_countable_r1().initial_curve.densified(cli._FRAME_MAX_SEG)
        assert frame0 == dense

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
        assert read_curve(tmp_path / "copy.curve") == frame

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

    def test_frames_deeper_than_the_schedule_resolves(self, tmp_path):
        # t_60 rounds to 1.0: the 60-stage gluing freezes only at t = 1
        for depth, times in (("60", "0.5,1"), ("20", "0.5")):
            argv = ["frames", "--scenario", "1d_counterexample", "--depth", depth]
            assert main(argv + ["--times", times, "--out", str(tmp_path / depth)]) == 0
        half = read_curve(tmp_path / "60" / "1d_counterexample_frame_000.curve")
        # t = 0.5 is the first instant of stage 2, whatever the depth
        assert half == read_curve(tmp_path / "20" / "1d_counterexample_frame_000.curve")
        # at t = 1 all 60 stages ran: x -> x^61 fixes the interval's ends
        # and pulls every inner vertex below its t = 0.5 image x^2
        end = read_curve(tmp_path / "60" / "1d_counterexample_frame_001.curve").points
        assert end[0, 0] == 0.0 and end[-1, 0] == 1.0
        assert (end[1:-1, 0] < half.points[1:-1, 0]).all()

    @pytest.mark.parametrize("name", ["1d_counterexample", "recursive_r1", "fox_remarkable"])
    def test_last_double_below_one_draws_the_depth_53_frame(self, tmp_path, name):
        # 1 - 2^-53 ends stage 53; at depth 60 it starts stage 54, whose
        # slot ends at 1.0, so stage 54 runs at local time 0
        t = "0.9999999999999999"
        assert float(t) == 1.0 - 2.0**-53
        for depth in ("53", "60"):
            argv = ["frames", "--scenario", name, "--depth", depth, "--times", t]
            assert main(argv + ["--out", str(tmp_path / depth)]) == 0
        for suffix in (".curve", ".svg"):
            f = f"{name}_frame_000{suffix}"
            assert filecmp.cmp(tmp_path / "53" / f, tmp_path / "60" / f, shallow=False)

    def test_frames_leaves_scipy_unloaded(self, tmp_path):
        # the frame path, crossing search included, runs on numpy alone
        argv = ["frames", "--scenario", "recursive_r1", "--times", "0.5", "--out", str(tmp_path)]
        code = (
            "import sys\n"
            "from knotiso.cli import main\n"
            f"status = main({argv!r})\n"
            "print(status, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr
        assert (tmp_path / "recursive_r1_frame_000.svg").exists()

    def test_degenerate_frame_exits_four(self, tmp_path, capsys):
        # t = 0.9 is in stage 4, where the fox projection is degenerate
        status = main(
            ["frames", "--scenario", "fox_remarkable", "--times", "0.9", "--out", str(tmp_path)]
        )
        assert status == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the frame is drawn before anything is written: no orphan .curve
        assert list(tmp_path.glob("fox_remarkable_frame_000.*")) == []

    def test_strands_meeting_in_3_space_exit_four(self, tmp_path, capsys, monkeypatch):
        # a curve whose strands cross at one height, inside both segments,
        # at every densification: degenerate in every view at any scale;
        # the t = 0 frame is the curve itself, whatever the stream
        rows = [(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0.0037, 1.0031, 0), (0.0037, -0.9969, 0)]

        def touching():
            s = build_countable_r1()
            return dataclasses.replace(s, initial_curve=PLCurve(np.array(rows, dtype=float)))

        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "touching", touching)
        out = tmp_path / "touching"
        assert main(["frames", "--scenario", "touching", "--times", "0", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "error: projection is degenerate even after view perturbation\n"
        assert list(out.iterdir()) == []
        # and the next call, on a registered scenario, draws
        assert _draw(tmp_path / "next", "countable_r1") == 0
        assert _film_hashes(tmp_path / "next", "countable_r1", 3) == GOLDEN["countable_r1"]


def _film_hashes(out: Path, name: str, count: int) -> tuple:
    """The (curve, svg) sha256 pairs of frames 0..count-1 in out."""
    return tuple(
        tuple(
            hashlib.sha256((out / f"{name}_frame_{i:03d}{suffix}").read_bytes()).hexdigest()
            for suffix in (".curve", ".svg")
        )
        for i in range(count)
    )


def _draw(out: Path, name: str, times=TIMES) -> int:
    return cli.cmd_frames(RunConfig(scenario=name, depth=20, seed=1, out=out, times=times))


def _kept_film():
    """The film frames keeps, or None."""
    return None if cli._film is None else cli._film[1]


class TestFramesReuse:
    """frames keeps one ``engine.Film``: the last scenario it built, with
    its densified curve, the level loop's rounds on that curve and the
    last frame it drew; what it draws is byte for byte the golden frames,
    and a fresh film's, whatever the call pattern."""

    def test_one_call_draws_what_single_time_calls_draw(self, tmp_path):
        cli._film = None
        name = "countable_r1"
        assert _draw(tmp_path / "all", name) == 0
        assert _film_hashes(tmp_path / "all", name, 3) == GOLDEN[name]
        film = _kept_film()
        for i, t in enumerate(TIMES):
            assert _draw(tmp_path / str(i), name, (t,)) == 0
            assert _film_hashes(tmp_path / str(i), name, 1) == GOLDEN[name][i : i + 1]
        assert _kept_film() is film

    @pytest.mark.parametrize("fresh", [False, True])
    def test_call_orders(self, tmp_path, fresh):
        cli._film = None
        order = ("countable_r1", "countable_r1", "1d_counterexample", "countable_r1")
        films = []
        for k, name in enumerate(order):
            if fresh:
                cli._film = None
            assert _draw(tmp_path / str(k), name) == 0
            assert _film_hashes(tmp_path / str(k), name, 3) == GOLDEN[name]
            films.append(_kept_film())
        # a film is kept across calls on one scenario, and only then
        assert [films[k] is films[k - 1] for k in (1, 2, 3)] == [not fresh, False, False]

    def test_a_replaced_builder_is_not_served_the_old_scenario(self, tmp_path, monkeypatch):
        assert _draw(tmp_path / "old", "countable_r1") == 0
        monkeypatch.setitem(
            cli.SCENARIO_BUILDERS, "countable_r1", cli.SCENARIO_BUILDERS["1d_counterexample"]
        )
        assert _draw(tmp_path / "new", "countable_r1") == 0
        assert _film_hashes(tmp_path / "new", "countable_r1", 3) == GOLDEN["1d_counterexample"]

    def test_a_builder_that_raises_exits_four_on_every_call(self, tmp_path, capsys, monkeypatch):
        calls = []

        def unbuildable():
            calls.append(None)
            raise ValueError("affine scale on axis x is 0.0, not finite and nonzero")

        monkeypatch.setitem(cli.SCENARIO_BUILDERS, "countable_r1", unbuildable)
        argv = ["frames", "--scenario", "countable_r1", "--times", "0.5", "--out", str(tmp_path)]
        assert [main(argv), main(argv)] == [4, 4]
        assert len(calls) == 2
        assert capsys.readouterr().err.count("error: affine scale") == 2
        assert list(tmp_path.iterdir()) == []


    # times that rise, fall and repeat, within a call and across calls,
    # at depths 5, 20 and 60, switching scenarios, with the fox frame at
    # t = 0.9, degenerate, between drawable ones, fox at 0.69 after 0.24,
    # where 4,027 of its 4,139 vertices move, and the fox film of
    # frames_film at seed 1: a drawn frame, rejected ones, the later ones
    # by the film's kept witness, one of those at depth 60, and a drawn
    # frame at t = 1; and a trefoil film from its start with one frame in
    # each stage slot 1..10, so the rows the distance skip leaves waiting
    # fresh at one level are skipped afresh at the next
    _PATTERN = (
        ("trefoil_chain", 20, "0"),
        ("trefoil_chain", 20, "0.3"),
        ("trefoil_chain", 20, "0.8,0.95"),
        ("trefoil_chain", 20, "0.6"),
        ("trefoil_chain", 20, "0.6"),
        ("trefoil_chain", 20, "0.6,0.6"),
        ("trefoil_chain", 60, "0.99,1"),
        ("trefoil_chain", 5, "0.97"),
        ("trefoil_chain", 5, "1"),
        ("countable_r1", 20, "0.5,1"),
        ("countable_r1", 60, "0.3"),
        (
            "trefoil_chain",
            10,
            "0.25,0.625,0.8125,0.90625,0.953125,0.9765625,0.98828125,0.994140625,0.9970703125,0.99853515625",
        ),
        ("trefoil_chain", 20, "0.7"),
        ("fox_remarkable", 20, "0.3"),
        ("fox_remarkable", 20, "0.9"),
        ("fox_remarkable", 20, "0.6,0.8"),
        ("fox_remarkable", 60, "0.45"),
        ("fox_remarkable", 5, "0.2"),
        ("fox_remarkable", 20, "0.24"),
        ("fox_remarkable", 20, "0.69"),
        ("fox_remarkable", 20, "0.7958553707977186"),
        ("fox_remarkable", 20, "0.8907262236244643"),
        ("fox_remarkable", 20, "0.949858800090872"),
        ("fox_remarkable", 60, "0.9706301336141001"),
        ("fox_remarkable", 20, "1"),
        ("recursive_r1", 60, "0.2,0.9,1"),
        ("recursive_r1", 20, "0.95"),
    )

    _REJECTED = {"0.9", "0.8907262236244643", "0.949858800090872", "0.9706301336141001"}

    @staticmethod
    def _frames(out: Path, name: str, depth: int, times: str):
        argv = ["frames", "--scenario", name, "--depth", str(depth), "--times", times]
        status = main(argv + ["--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
        return status, files

    def test_every_call_of_a_film_draws_what_a_cold_call_draws(self, tmp_path, capsys):
        cli._film = None
        warm = [self._frames(tmp_path / f"warm{k}", *c) for k, c in enumerate(self._PATTERN)]
        assert [w[0] for w in warm] == [4 if c[2] in self._REJECTED else 0 for c in self._PATTERN]
        for k, call in enumerate(self._PATTERN):
            cli._film = None
            assert self._frames(tmp_path / f"cold{k}", *call) == warm[k], call
        capsys.readouterr()

    def test_a_rejection_by_the_kept_witness_raises_from_find_crossings(self, tmp_path, monkeypatch):
        # perfbench counts find_crossings.degenerate where find_crossings
        # raises, and a frame the kept witness rejects walks no pair
        raised, walks = [], []
        find, close = diagram.find_crossings, diagram.multiscale_close_pairs

        def spied_find(curve, search=None):
            try:
                return find(curve, search)
            except ValueError as exc:
                raised.append(str(exc))
                raise

        def spied_close(*args):
            walks.append(None)
            return close(*args)

        monkeypatch.setattr(diagram, "find_crossings", spied_find)
        monkeypatch.setattr(diagram, "multiscale_close_pairs", spied_close)
        cli._film = None
        got = []
        for k, t in enumerate(("0.7958553707977186", "0.8907262236244643", "0.949858800090872")):
            walks.clear()
            got.append((self._frames(tmp_path / str(k), "fox_remarkable", 20, t)[0], len(walks)))
        assert got == [(0, 1), (4, 1), (4, 0)]
        assert raised == ["projection is degenerate even after view perturbation"] * 2

    def test_a_film_survives_a_depth_change(self, tmp_path):
        # the rounds are per level of g, so one film serves every depth
        cli._film = None
        calls = [("trefoil_chain", depth, "0.6,0.97") for depth in (20, 60, 5, 20)]
        warm, films = [], []
        for k, call in enumerate(calls):
            warm.append(self._frames(tmp_path / f"warm{k}", *call))
            films.append(_kept_film())
        assert [w[0] for w in warm] == [0] * 4 and all(film is films[0] for film in films)
        for k, call in enumerate(calls):
            cli._film = None
            assert self._frames(tmp_path / f"cold{k}", *call) == warm[k], call

    def test_one_call_with_sorted_times_never_restarts_its_rounds(self, tmp_path, monkeypatch):
        # a call's times are sorted, so its loops ask for rising levels and
        # never take the restart in _Rounds.state; a later call in the same
        # process, at an earlier time, still does
        asked = []
        state = engine._Rounds.state

        def recorded(self, at, todo):
            asked.append((self.todo, todo))
            return state(self, at, todo)

        monkeypatch.setattr(engine._Rounds, "state", recorded)
        times = "0,0.3,0.6,0.8,0.9,0.95,0.98,0.99,1"
        for name, build in sorted(cli.SCENARIO_BUILDERS.items()):
            if build().moves.similarity is None:
                continue
            for depth in (5, 20):
                cli._film, asked[:] = None, []
                status, _ = self._frames(tmp_path / f"{name}_{depth}", name, depth, times)
                assert status in (0, 4) and asked, (name, depth)
                assert all(todo >= last for last, todo in asked), (name, depth, asked)
        asked[:] = []
        for k, t in enumerate(("0.99", "0.5")):
            assert self._frames(tmp_path / f"later{k}", "trefoil_chain", 20, t)[0] == 0
        assert any(todo < last for last, todo in asked)

    def test_a_cleared_film_lets_go_of_its_declaration_without_the_collector(self, tmp_path):
        # nothing the film holds refers back to it, and the declaration
        # keeps nothing, so dropping the film frees both without a
        # collection
        gc.disable()
        try:
            cli._film = None
            assert _draw(tmp_path, "trefoil_chain") == 0
            film = weakref.ref(_kept_film())
            declaration = weakref.ref(film().seq.similarity)
            assert film().rounds is not None and film().last is not None
            cli._film = None
            assert film() is None and declaration() is None
        finally:
            gc.enable()

    def test_a_film_keeps_one_frame_its_texts_and_the_level_state(self, tmp_path):
        """After trefoil_chain's nine frames, one time per call as a film
        is drawn, the kept film holds the scenario, the densified curve,
        the last frame with its xy search and its two texts, each with its
        row offsets, and the level loop's rounds on every row of the
        curve: no earlier frame."""
        name = "trefoil_chain"
        build = cli.SCENARIO_BUILDERS[name]
        times = (0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99, 1.0)
        # a first film fills the package's own caches
        for i, t in enumerate(times):
            assert _draw(tmp_path / f"warm{i}", name, (t,)) == 0
        cli._film = None
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # the film holds the scenario's stream, not the scenario
            stream = build().moves
            built = tracemalloc.get_traced_memory()[0] - before
            del stream
            for i, t in enumerate(times):
                assert _draw(tmp_path / str(i), name, (t,)) == 0
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            film = _kept_film()
            rounds, last, search, texts = film.rounds, film.last, film.search, film.texts
            allowed = built + film.curve.points.nbytes + last.points.nbytes
            allowed += sum(len(t.text) + t.at.nbytes for t in texts)
            allowed += sum(a.nbytes for a in (rounds.steps, rounds.moved, rounds.y))
            allowed += sum(a.nbytes for a in (search.hits, search.t, search.u))
            del film, rounds, last, search, texts
            cli._film = None
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the last frame's file text and point text take 293,446 and
        # 210,666 bytes and their row offsets 53,832 each, 611,776 in all
        # against the 484,416 of its cells; the rounds on the curve's
        # 6,728 vertices take 222,024
        assert retained <= allowed + 8_000


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

    @pytest.mark.parametrize("seed", [0, 99999999999999999999999])
    @pytest.mark.parametrize("name", sorted(cli.SCENARIO_BUILDERS))
    def test_grid_is_default_rngs_sample_bitwise(self, name, seed, monkeypatch):
        # numpy.random is the oracle for the in-package stream
        grids = []

        def probe(seq, n, m, grid):
            grids.append(grid)
            return 0.0

        monkeypatch.setattr(cli, "uniform_convergence_probe", probe)
        s = cli.SCENARIO_BUILDERS[name]()
        cli.probe_scenario(s, RunConfig(scenario=name, depth=4, seed=seed))
        want = s.moves.container.sample(np.random.default_rng(seed), 125)
        assert [g.tobytes() for g in grids] == [want.tobytes()]

    def test_the_census_builds_no_stage_of_a_declared_stream(self, monkeypatch):
        """A declared stream's probes, census included, read its stages off
        the declaration; the 1-D counterexample, declared by its stage
        function, still asks for its 40 census stages."""
        asked = []
        stage = MoveSequence.stage

        def counted(seq, k):
            asked.append(k)
            return stage(seq, k)

        monkeypatch.setattr(MoveSequence, "stage", counted)
        for name in ("fox_remarkable", "recursive_r1", "countable_r1"):
            cli.probe_scenario(cli.SCENARIO_BUILDERS[name](), RunConfig(scenario=name))
        assert asked == []
        name = "1d_counterexample"
        cli.probe_scenario(cli.SCENARIO_BUILDERS[name](), RunConfig(scenario=name))
        assert set(asked) == set(range(1, cli._K_BUDGET + 1))

    def test_census_all_settled_for_r1(self):
        s = build_countable_r1()
        cfg = RunConfig(scenario="countable_r1", depth=8)
        probe = cli.probe_scenario(s, cfg)
        assert probe.unsettled_points == 0
        assert not probe.budget_exhausted
