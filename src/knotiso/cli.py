"""Command-line driver: run scenarios, emit hypothesis/probe reports, and
export curve snapshots and projection frames.

Verbs, each taking --scenario and only the flags it reads:
  run    --depth --horizon --tol --seed --out
         full report (hypotheses + probes) and a curve snapshot; exit 0
         iff computed verdicts match the scenario's declared verdicts
  check  --horizon --tol
         hypothesis check only; prints the tail-diameter table
  frames --depth --out --times
         curve file + projection drawing at each requested time

Reports are append-only, named <scenario>_<depth>_<seed>.report, and
byte-identical across runs with the same config and seed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ball_factoring import find_ball_factoring
from .diagram import render_svg
from .engine import (
    ProbeReport,
    check_hypotheses,
    eval_limit_isotopy,
    glue_schedule,
    injectivity_probe,
    map_curve,
    truncated_map,
    uniform_convergence_probe,
)
from .geometry import Point3, write_curve
from .scenarios import INJECTIVITY_THRESHOLD, SCENARIO_BUILDERS, Scenario

# evaluation budget past which an unbounded stream's stage boxes would
# collapse in double precision for the deepest scenarios
_K_BUDGET = 40

_EXIT_MISMATCH = 1
_EXIT_UNKNOWN = 2
_EXIT_IO = 3
_EXIT_EVAL = 4


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    depth: int = 20
    horizon: int = 20
    tol: float = 1e-6
    seed: int = 0
    out: Path = Path(".")
    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {self.horizon}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not all(0.0 <= t <= 1.0 for t in self.times):
            raise ValueError(f"frame times must lie in [0, 1], got {self.times}")
        if list(self.times) != sorted(self.times):
            raise ValueError("frame times must be sorted")

    @property
    def report_name(self) -> str:
        return f"{self.scenario}_{self.depth}_{self.seed}.report"


def probe_scenario(s: Scenario, cfg: RunConfig) -> ProbeReport:
    """Convergence, injectivity, and settling probes at the config depth."""
    rng = np.random.default_rng(cfg.seed)
    grid = [Point3.from_array(p) for p in s.moves.container.sample(rng, 125)]
    sup_dev = uniform_convergence_probe(
        s.moves, max(1, cfg.depth // 2), cfg.depth, grid
    )
    min_sep = injectivity_probe(s.moves, cfg.depth, s.probe_pairs)
    unsettled = 0
    exhausted = False
    for p in s.census_samples:
        lv = eval_limit_isotopy(s.moves, p, cfg.tol, k_budget=_K_BUDGET)
        if lv.status != "settled":
            unsettled += 1
        if lv.status == "budget-exhausted":
            exhausted = True
    return ProbeReport(
        sup_deviation=sup_dev,
        min_image_separation=min_sep,
        unsettled_points=unsettled,
        budget_exhausted=exhausted,
    )


def computed_verdicts(s: Scenario, cfg: RunConfig, probe: ProbeReport):
    hyp = check_hypotheses(s.moves, cfg.horizon, cfg.tol)
    inj = "fail" if probe.min_image_separation < INJECTIVITY_THRESHOLD else "pass"
    return hyp, inj


def report_lines(s: Scenario, cfg: RunConfig) -> tuple[list[str], bool]:
    """Full report body and whether computed verdicts match the declared
    expectations."""
    probe = probe_scenario(s, cfg)
    hyp, inj = computed_verdicts(s, cfg, probe)
    lines = [
        f"scenario: {cfg.scenario}",
        f"depth: {cfg.depth}",
        f"horizon: {cfg.horizon}",
        f"tol: {cfg.tol:g}",
        f"seed: {cfg.seed}",
    ]
    lines += hyp.to_lines()
    lines += probe.to_lines()
    lines.append(f"injectivity: {inj}")
    if s.nested_family is not None:
        eps, n0 = find_ball_factoring(s.nested_family, cfg.horizon)
        lines.append(f"ball_factoring: {{epsilon: {eps:.17g}, n0: {n0}}}")
    exp = s.expected
    lines.append(f"expected: {exp.hypotheses}/{exp.injectivity}")
    lines.append(f"computed: {hyp.verdict}/{inj}")
    match = (
        hyp.verdict == exp.hypotheses
        and hyp.first_violation == exp.failing_condition
        and inj == exp.injectivity
    )
    lines.append(f"match: {str(match).lower()}")
    return lines, match


def _write_text(path: Path, text: str, append: bool = False) -> None:
    with open(path, "a" if append else "w") as fh:
        fh.write(text)


def cmd_run(cfg: RunConfig) -> int:
    s = SCENARIO_BUILDERS[cfg.scenario]()
    lines, match = report_lines(s, cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_text(cfg.out / cfg.report_name, "\n".join(lines) + "\n", append=True)
    snapshot = map_curve(truncated_map(s.moves, cfg.depth), s.initial_curve)
    write_curve(snapshot, cfg.out / f"{cfg.scenario}_{cfg.depth}_{cfg.seed}.curve")
    print("\n".join(lines))
    return 0 if match else _EXIT_MISMATCH


def cmd_check(cfg: RunConfig) -> int:
    s = SCENARIO_BUILDERS[cfg.scenario]()
    rep = check_hypotheses(s.moves, cfg.horizon, cfg.tol)
    for n, d in rep.tail_diameters:
        print(f"{n} {d:.17g}")
    if rep.verdict == "pass":
        print("verdict: pass")
        return 0
    print(f"verdict: fail (condition {rep.first_violation})")
    return _EXIT_MISMATCH


def cmd_frames(cfg: RunConfig) -> int:
    s = SCENARIO_BUILDERS[cfg.scenario]()
    cfg.out.mkdir(parents=True, exist_ok=True)
    glued = glue_schedule(s.moves, cfg.depth)
    dense = s.initial_curve.densified(0.01)
    for i, t in enumerate(cfg.times):
        frame = map_curve(glued.map_at(t), dense)
        stem = cfg.out / f"{cfg.scenario}_frame_{i:03d}"
        write_curve(frame, stem.with_suffix(".curve"))
        _write_text(stem.with_suffix(".svg"), render_svg(frame, gap_radius=0.005))
    return 0


_FLAGS = {
    "--depth": dict(type=int, default=20),
    "--horizon": dict(type=int, default=20),
    "--tol": dict(type=float, default=1e-6),
    "--seed": dict(type=int, default=0),
    "--out": dict(type=Path, default=Path(".")),
    "--times": dict(
        type=lambda s: tuple(float(x) for x in s.split(",")) if s else (),
        default=(),
        help="comma-separated frame times in [0,1]",
    ),
}

_VERB_FLAGS = {
    "run": ("--depth", "--horizon", "--tol", "--seed", "--out"),
    "check": ("--horizon", "--tol"),
    "frames": ("--depth", "--out", "--times"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="knotiso",
        description="countably composed ambient isotopies: run, check, frames",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, flags in _VERB_FLAGS.items():
        sp = sub.add_parser(verb)
        sp.add_argument("--scenario", required=True)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    verb = args.pop("verb")
    if verb == "frames" and not args["times"]:
        parser.error("frames needs --times")
    try:
        cfg = RunConfig(**args)
    except ValueError as exc:
        parser.error(str(exc))
    if cfg.scenario not in SCENARIO_BUILDERS:
        print(f"unknown scenario: {cfg.scenario}", file=sys.stderr)
        print("known:", ", ".join(sorted(SCENARIO_BUILDERS)), file=sys.stderr)
        return _EXIT_UNKNOWN
    try:
        if verb == "run":
            return cmd_run(cfg)
        if verb == "check":
            return cmd_check(cfg)
        return cmd_frames(cfg)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ValueError as exc:
        # a map that cannot be built or evaluated, not a verdict mismatch
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
