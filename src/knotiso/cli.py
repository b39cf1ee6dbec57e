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
byte-identical across runs with the same config and seed.  The seed draws
run's probe grid from ``geometry.PCG64Stream``, the SeedSequence/PCG64
doubles of ``numpy.random.default_rng(seed)``, so no verb loads
``numpy.random`` and the report bytes do not depend on its code.

frames steps from its last frame.  It keeps one ``engine.Film``, of the
last scenario builder called: the scenario's stream, its initial curve
densified to ``_FRAME_MAX_SEG``, the level loop's rounds on that curve
and the last frame drawn, none of which depends on --depth.  So
consecutive frames calls on one scenario, at any depths, and all frames
of one call, share one build and one densification, a frame at the same
or a later stage runs only the rounds the frames before it did not, and
each frame is drawn against the last.  It prints only the vertices whose
bits differ from that frame's and splices their rows into the last
frame's file text and point text; its ``.curve`` is that file text in
one write, and its drawing's polylines are slices of that point text.
It searches for crossings only among the segments that moved and those
whose boxes meet theirs.  A frame whose projection is degenerate exits
4.  The pairs that made one view degenerate are tested first in the
next, the last frame's xy view's in the frame's xy view and each view's
in the perturbed view after it, and a view they still make degenerate
is rejected without a search (``engine.Film``).  run and check build
their scenario per call, and keep nothing; run's snapshot is the
curve file text of every row, laid out as a frame's rows are.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .diagram import render_svg
from .engine import (
    Film,
    ProbeReport,
    check_hypotheses,
    eval_limit_isotopy,
    find_ball_factoring,
    glue_schedule,
    injectivity_probe,
    map_curve,
    truncated_map,
    uniform_convergence_probe,
)
from .geometry import PCG64Stream, write_curve
from .scenarios import SCENARIO_BUILDERS, Scenario

# the t = 1 census's fixed stage budget, whatever the depth, which keeps
# the reports byte-stable
_K_BUDGET = 40
# the longest segment of the densified initial curve that frames maps
_FRAME_MAX_SEG = 0.01

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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(0.0 <= t <= 1.0 for t in self.times):
            raise ValueError(f"frame times must lie in [0, 1], got {self.times}")
        if list(self.times) != sorted(self.times):
            raise ValueError("frame times must be sorted")

    @property
    def report_name(self) -> str:
        return f"{self.scenario}_{self.depth}_{self.seed}.report"


def probe_scenario(s: Scenario, cfg: RunConfig) -> ProbeReport:
    """Convergence, injectivity, and settling probes at the config depth."""
    grid = s.moves.container.sample(PCG64Stream(cfg.seed), 125)
    sup_dev = uniform_convergence_probe(s.moves, max(1, cfg.depth // 2), cfg.depth, grid)
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


def report_lines(s: Scenario, cfg: RunConfig) -> tuple[list[str], bool]:
    """Full report body and whether computed verdicts match the declared
    expectations."""
    probe = probe_scenario(s, cfg)
    hyp = check_hypotheses(s.moves, cfg.horizon, cfg.tol)
    lines = [
        f"scenario: {cfg.scenario}",
        f"depth: {cfg.depth}",
        f"horizon: {cfg.horizon}",
        f"tol: {cfg.tol:g}",
        f"seed: {cfg.seed}",
    ]
    lines += hyp.to_lines()
    lines += probe.to_lines()
    lines.append(f"injectivity: {probe.injectivity}")
    factoring = find_ball_factoring(s.moves, cfg.horizon)
    if factoring is not None:
        eps, n0 = factoring
        lines.append(f"ball_factoring: {{epsilon: {eps:.17g}, n0: {'none' if n0 is None else n0}}}")
    exp = s.expected
    lines.append(f"expected: {'pass' if exp.failing is None else 'fail'}/{exp.injectivity}")
    lines.append(f"computed: {hyp.verdict}/{probe.injectivity}")
    match = hyp.failing == exp.failing and probe.injectivity == exp.injectivity
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
    print(rep.to_lines()[-1])
    return 0 if rep.failing is None else _EXIT_MISMATCH


# the one film frames keeps, with the builder of the scenario it films
_film: tuple | None = None


def _film_of(builder) -> Film:
    """The kept film where builder made its scenario, at whatever depth,
    else a new one kept in its place; a builder that raises keeps none."""
    global _film
    if _film is None or _film[0] is not builder:
        _film = None
        s = builder()
        _film = builder, Film(s.moves, s.initial_curve.densified(_FRAME_MAX_SEG))
    return _film[1]


def cmd_frames(cfg: RunConfig) -> int:
    film = _film_of(SCENARIO_BUILDERS[cfg.scenario])
    cfg.out.mkdir(parents=True, exist_ok=True)
    glued = glue_schedule(film.seq, cfg.depth, film.rounds)
    for i, t in enumerate(cfg.times):
        frame = map_curve(glued.map_at(t), film.curve)
        # taken first: a degenerate frame raises before either file exists
        crossings = film.take(frame)
        lines, points = film.texts
        svg = render_svg(frame, 0.005, crossings, points)
        stem = cfg.out / f"{cfg.scenario}_frame_{i:03d}"
        write_curve(frame, stem.with_suffix(".curve"), lines)
        _write_text(stem.with_suffix(".svg"), svg)
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

# every flag takes a value
_VALUE_FLAGS = {"--scenario", *_FLAGS}

_VERB_FLAGS = {
    "run": ("--depth", "--horizon", "--tol", "--seed", "--out"),
    "check": ("--horizon", "--tol"),
    "frames": ("--depth", "--out", "--times"),
}


def _joined(argv: list[str]) -> list[str]:
    """argv with each value flag and the token after it, unless that is a
    flag, joined as ``--flag=value``: argparse would take a value such as
    -1e-6 or -inf after a space for a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every ``main`` call reads: parsing leaves it as it
    was, and building one per call would leave its reference cycles."""
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
    args = vars(parser.parse_args(_joined(sys.argv[1:] if argv is None else argv)))
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
    except (ValueError, MemoryError) as exc:
        # an unbuildable map or an unallocatable table, not a verdict mismatch
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
