"""Drives knotiso's CLI entry points over a workload's ops, times each op
and checks its output.

Every op gets a fresh output directory, because reports are append-only.
An op passes only if it returns and its output checks out:

* run: exit code 0, the report body equals what the verb printed, and it
  equals byte for byte the first report of the same config in this run;
* frames: the ``.svg`` starts with ``<svg`` and the ``.curve`` reads back
  through ``read_curve`` with the vertex count of the densified initial
  curve.

An op that raises is a failed op, never a skipped one.  An op that
returns with output that fails its check is failed too, and makes the
run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import Op

# the segment length cmd_frames densifies the initial curve to
FRAME_MAX_SEG = 0.01

# Seconds ``calibrate`` takes on the reference machine (2-vCPU x86-64 VM,
# Xeon at 2.1 GHz, Python 3.11, numpy 2.4) in a quiet period.
REFERENCE_CALIBRATION_S = 0.0068


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy kernels and Python float
    arithmetic that does not touch knotiso.

    The reference machine runs the same code up to 1.5x slower for minutes
    at a time (its vCPUs share cores with other tenants).  Timing this loop
    before every op measures that host speed, and the end-to-end times are
    reported at the reference speed: see ``speed_factors``."""
    start = time.perf_counter()
    pts = np.linspace(0.0, 2.0, 12000).reshape(4000, 3)
    frame = np.array([[1.0, 0.2, 0.0], [0.0, 1.1, 0.3], [0.1, 0.0, 0.9]])
    total = 0.0
    for i in range(40):
        img = pts @ frame.T + i * 1e-3
        inside = np.all((img >= 0.3) & (img <= 1.2), axis=-1)
        total += float(img[inside].sum())
        total += sum(x * y - z for x, y, z in img[:300].tolist())
    return time.perf_counter() - start


@dataclass
class OpRecord:
    key: str
    seconds: float
    status: str  # "ok" | "error" (raised) | "wrong" (output failed its check)
    detail: str = ""
    sha256: str = ""
    calibration_s: float = 0.0  # ``calibrate`` just before the op


@dataclass
class Measurement:
    setup_s: list[float]
    warmup: list[OpRecord]
    passes: list[list[OpRecord]]
    traced: list[list[OpRecord]]
    layer_passes: list[dict[str, float]]

    def all_ops(self) -> list[OpRecord]:
        return self.warmup + [r for p in self.passes + self.traced for r in p]


def import_knotiso(src: Path):
    """A fresh import of knotiso.cli from ``src``, never an installed copy."""
    for name in [m for m in sys.modules if m == "knotiso" or m.startswith("knotiso.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("knotiso.cli")
    if Path(cli.__file__).resolve().parent != (src / "knotiso").resolve():
        raise ImportError(f"knotiso.cli imported from {cli.__file__}, not {src}")
    return cli


def set_up(ops: list[Op], src: Path):
    """Import knotiso.cli afresh and build each scenario of the workload
    once.  Returns the import, the seconds that took, and the vertex count
    each frame op's curve must have."""
    start = time.perf_counter()
    cli = import_knotiso(src)
    built = {name: cli.SCENARIO_BUILDERS[name]() for name in dict.fromkeys(op.scenario for op in ops)}
    seconds = time.perf_counter() - start
    vertices = {
        op.scenario: len(built[op.scenario].initial_curve.densified(FRAME_MAX_SEG).vertices)
        for op in ops
        if op.verb == "frames"
    }
    return cli, seconds, vertices


class Runner:
    """Runs ops in one process against the latest import of knotiso."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.reports: dict[str, bytes] = {}
        self.n_ops = 0

    def set_up(self, ops: list[Op], src: Path) -> float:
        self.cli, seconds, self.vertices = set_up(ops, src)
        self.geometry = sys.modules["knotiso.geometry"]
        return seconds

    def run_pass(self, ops: list[Op]) -> list[OpRecord]:
        return [self.run_op(op) for op in ops]

    def run_op(self, op: Op) -> OpRecord:
        out = self.work / f"op{self.n_ops}"
        if self.tracer is not None:
            self.tracer.op = self.n_ops
        self.n_ops += 1
        verb = self.cli.cmd_run if op.verb == "run" else self.cli.cmd_frames
        calibration_s = calibrate()
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            self._trace(True)
            cfg = self.cli.RunConfig(
                scenario=op.scenario,
                depth=op.depth,
                horizon=op.horizon,
                seed=op.seed,
                out=out,
                times=op.times,
            )
            with contextlib.redirect_stdout(printed):
                code = verb(cfg)
        except Exception as exc:
            self._trace(False)
            rec = OpRecord(op.key, time.perf_counter() - start, "error", f"{type(exc).__name__}: {exc}")
        else:
            seconds = time.perf_counter() - start
            self._trace(False)
            rec = self._check(op, cfg, seconds, code, printed.getvalue())
        shutil.rmtree(out, ignore_errors=True)
        rec.calibration_s = calibration_s
        return rec

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def _check(self, op: Op, cfg, seconds: float, code: int, printed: str) -> OpRecord:
        rec = OpRecord(op.key, seconds, "ok")
        try:
            if code != 0:
                problem = f"exit code {code}"
            elif op.verb == "run":
                problem = self._check_report(op, cfg, printed, rec)
            else:
                problem = self._check_frame(op, cfg)
        except (OSError, ValueError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            rec.status, rec.detail = "wrong", problem
        return rec

    def _check_report(self, op: Op, cfg, printed: str, rec: OpRecord) -> str:
        body = (cfg.out / cfg.report_name).read_bytes()
        rec.sha256 = hashlib.sha256(body).hexdigest()
        if body != printed.encode():
            return "report file differs from the printed report"
        if body != self.reports.setdefault(op.key, body):
            return "report differs from the first report of the same config"
        return ""

    def _check_frame(self, op: Op, cfg) -> str:
        stem = cfg.out / f"{op.scenario}_frame_000"
        with open(stem.with_suffix(".svg")) as fh:
            if fh.read(4) != "<svg":
                return "svg does not start with <svg"
        n = len(self.geometry.read_curve(stem.with_suffix(".curve")).vertices)
        if n != self.vertices[op.scenario]:
            return f"curve has {n} vertices, expected {self.vertices[op.scenario]}"
        return ""


def pass_seconds(records: list[OpRecord]) -> float:
    """Time to finish a pass: the sum of its op latencies."""
    return sum(r.seconds for r in records)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile that has at least 10 samples beyond it, as
    (percentile, value).  Needs at least 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return 100.0 * (n - 10) / n, xs[n - 11]


def measure(ops: list[Op], src: Path, work: Path, passes: int, trace: bool) -> Measurement:
    """Set-up, an untimed warm-up, then ``passes`` timed passes with
    tracing off or, with ``trace``, half as many passes untraced followed
    by as many traced.

    Set-up is repeated after every untraced pass, so its median, like the
    pass median, samples the whole run rather than its first seconds.  The
    warm-up runs the first op, so lazy imports stay out of the timed
    passes."""
    tracer = tracing.Tracer() if trace else None
    runner = Runner(work, tracer)
    setup_s = [runner.set_up(ops, src)]
    warmup = runner.run_pass(ops[:1])
    if trace:
        passes = max(2, math.ceil(passes / 2))
    timed = []
    for _ in range(passes):
        timed.append(runner.run_pass(ops))
        setup_s.append(runner.set_up(ops, src))
    traced, layer_passes = [], []
    if tracer is not None:
        modules = {name: sys.modules[f"knotiso.{name}"] for name in
                   ("cli", "engine", "geometry", "maps", "diagram", "scenarios", "canonical")}
        saved = tracing.install(tracer, modules)
        try:
            for _ in range(passes):
                first = runner.n_ops
                traced.append(runner.run_pass(ops))
                layer_passes.append(tracer.pass_metrics(range(first, runner.n_ops)))
        finally:
            tracing.uninstall(saved)
        untraced_s = statistics.median(pass_seconds(p) for p in timed)
        for rec, metrics in zip(traced, layer_passes):
            metrics["trace.pass_s"] = pass_seconds(rec)
            metrics["trace.overhead_s"] = pass_seconds(rec) - untraced_s
    return Measurement(setup_s, warmup, timed, traced, layer_passes)


# calibrations on each side of an op that set its speed factor
SPEED_WINDOW = 3


def speed_factors(records: list[OpRecord]) -> list[float]:
    """Per op, REFERENCE_CALIBRATION_S over the median calibration time of
    the op and its SPEED_WINDOW neighbours on each side, in run order.  The
    median of a few neighbours follows the host's drift over seconds while
    ignoring a single calibration's jitter."""
    cal = [r.calibration_s for r in records]
    return [
        REFERENCE_CALIBRATION_S / statistics.median(cal[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i in range(len(cal))
    ]


def end_to_end(m: Measurement, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics, times at the reference host speed.  A set-up
    takes the speed factor of the op timed just before it, the first one
    that of the warm-up."""
    timed = [r for p in m.passes for r in p]
    factors = speed_factors(timed)
    latencies = [r.seconds * f for r, f in zip(timed, factors)]
    n = len(m.passes[0])
    passes = [sum(latencies[i : i + n]) for i in range(0, len(latencies), n)]
    setup_factors = speed_factors(m.warmup)[-1:] + factors[n - 1 :: n]
    ops = m.all_ops()
    failed = sum(r.status != "ok" for r in ops)
    return {
        "pass_s": statistics.median(passes),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail(latencies)[1],
        "ok_ratio": 1.0 - failed / len(ops),
        "setup_s": statistics.median(s * f for s, f in zip(m.setup_s, setup_factors)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Median over the traced passes of each per-layer metric."""
    return {
        name: statistics.median(p[name] for p in m.layer_passes)
        for name, _unit, _better in tracing.PER_LAYER_METRICS
    }
