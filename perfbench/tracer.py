"""Spans around the calls into knotiso's layers, recorded from outside the
program.

``install`` replaces public functions and methods where the program looks
them up -- the module global a caller imported by name, or the class
attribute -- with wrappers that record a span (name, start, end, parent
span, op id) and count the work passed through.  The program's own files
are not edited.  Spans stay in memory until ``pass_metrics`` turns them
into per-pass layer metrics.

A span's self time is its duration minus the durations of its direct
child spans.  Work the program does between traced calls lands in the
self time of the nearest traced caller.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# span name -> layer (the knotiso module it measures)
SPAN_LAYER = {
    "eval_limit": "engine",
    "tail_boxes": "engine",
    "check_hypotheses": "engine",
    "stage_build": "engine",
    "apply_truncated": "engine",
    "uniform_probe": "engine",
    "injectivity_probe": "engine",
    "map_curve": "engine",
    "glue_map_at": "engine",
    "union_diameter": "geometry",
    "multiscale_close_pairs": "geometry",
    "densified": "geometry",
    "write_curve": "geometry",
    "cone": "maps",
    "unsquish": "maps",
    "affine": "maps",
    "power1d": "maps",
    "composite": "maps",
    "cone.init": "maps",
    "moves.build": "moves",
    "canonical.conjugated_insert": "canonical",
    "scenarios.build": "scenarios",
    "find_crossings": "diagram",
    "render_svg": "diagram",
    "ball_factoring.find": "ball_factoring",
    "cli.report_lines": "cli",
    "cli.probe_scenario": "cli",
    "cli.cmd_run": "cli",
    "cli.cmd_frames": "cli",
}

LAYERS = (
    "cli",
    "engine",
    "geometry",
    "maps",
    "moves",
    "canonical",
    "scenarios",
    "diagram",
    "ball_factoring",
)

MAP_KINDS = ("cone", "unsquish", "affine", "power1d", "composite")


def _metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("eval_limit.calls", "count", "lower"),
        ("eval_limit.s", "s", "lower"),
        ("eval_limit.steps", "count", "lower"),
        ("census.settled", "count", "higher"),
        ("census.tol_converged", "count", "lower"),
        ("census.budget_exhausted", "count", "lower"),
        ("tail_boxes.calls", "count", "lower"),
        ("tail_boxes.boxes", "count", "lower"),
        ("check_hypotheses.calls", "count", "lower"),
        ("check_hypotheses.s", "s", "lower"),
        ("stage_build.calls", "count", "lower"),
        ("stage_build.s", "s", "lower"),
        ("apply_truncated.stage_applications", "count", "lower"),
        ("apply_truncated.rows", "count", "lower"),
        ("uniform_probe.s", "s", "lower"),
        ("injectivity_probe.s", "s", "lower"),
        ("map_curve.s", "s", "lower"),
        ("map_curve.vertices", "count", "lower"),
        ("glue_map_at.s", "s", "lower"),
        ("union_diameter.calls", "count", "lower"),
        ("union_diameter.s", "s", "lower"),
        ("union_diameter.corner_pairs", "count", "lower"),
        ("multiscale_close_pairs.calls", "count", "lower"),
        ("multiscale_close_pairs.s", "s", "lower"),
        ("multiscale_close_pairs.pairs", "count", "lower"),
        ("densified.s", "s", "lower"),
        ("write_curve.s", "s", "lower"),
        ("write_curve.vertices", "count", "lower"),
        ("contains_array.calls", "count", "lower"),
        ("contains_array.rows", "count", "lower"),
    ]
    for kind in MAP_KINDS:
        specs += [
            (f"{kind}.calls", "count", "lower"),
            (f"{kind}.rows", "count", "lower"),
            (f"{kind}.s", "s", "lower"),
            (f"{kind}.rows_per_s", "1/s", "higher"),
        ]
    specs += [
        ("cone.rows_in_support", "count", "lower"),
        ("unsquish.rows_in_support", "count", "lower"),
        ("composite.rows_in_support", "count", "lower"),
        ("composite.support_hit_ratio", "ratio", "higher"),
        ("cone.init.calls", "count", "lower"),
        ("cone.init.s", "s", "lower"),
        ("moves.build.calls", "count", "lower"),
        ("moves.build.s", "s", "lower"),
        ("canonical.conjugated_insert.calls", "count", "lower"),
        ("canonical.conjugated_insert.s", "s", "lower"),
        ("scenarios.build.calls", "count", "lower"),
        ("scenarios.build.s", "s", "lower"),
        ("find_crossings.calls", "count", "lower"),
        ("find_crossings.s", "s", "lower"),
        ("find_crossings.crossings", "count", "lower"),
        ("find_crossings.degenerate", "count", "lower"),
        ("render_svg.s", "s", "lower"),
        ("render_svg.bytes", "bytes", "lower"),
        ("ball_factoring.find.s", "s", "lower"),
        ("cli.report_lines.s", "s", "lower"),
        ("cli.probe_scenario.s", "s", "lower"),
        ("cli.cmd_run.s", "s", "lower"),
        ("cli.cmd_frames.s", "s", "lower"),
    ]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    # filled in by the harness: traced pass time and its excess over untraced
    specs += [("trace.pass_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


PER_LAYER_METRICS = _metric_specs()


class Tracer:
    """In-memory span recorder.  The harness sets ``op`` before each op and
    clears ``active`` while it checks outputs."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        # span index -> seconds its counters spent inside it, kept out of
        # its self time like a child span's
        self._counting: dict[int, float] = defaultdict(float)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    def wrap(self, name, fn, counter=None, error_counter=None):
        """``fn`` recording a span per call; ``counter(tracer, result, *args)``
        runs after a call returns, ``error_counter`` is bumped when it raises."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
                if error_counter is not None:
                    self.count(error_counter)
                raise
            end = clock()
            spans[idx] = (name, start, end, parent, self.op)
            stack.pop()
            if counter is not None:
                counter(self, result, *args)
                if parent >= 0:
                    self._counting[parent] += clock() - end
            return result

        return traced

    def pass_metrics(self, op_ids: range) -> dict[str, float]:
        """Per-layer metrics of the ops in ``op_ids`` (one pass)."""
        ops = set(op_ids)
        child = defaultdict(float, self._counting)
        mine = []
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                mine.append((idx, name, end - start))
                if parent >= 0:
                    child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, name, dur in mine:
            calls[name] += 1
            self_s[name] += dur - child[idx]
        counts: dict[str, int] = defaultdict(int)
        for op in ops:
            for k, v in self.counts.get(op, {}).items():
                counts[k] += v
        return _resolve(calls, self_s, counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _resolve(calls, self_s, counts) -> dict[str, float]:
    out: dict[str, float] = {}
    layer_s = defaultdict(float)
    for name, s in self_s.items():
        layer_s[SPAN_LAYER[name]] += s
    for name, _unit, _better in PER_LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if name.startswith("trace."):
            continue
        if field == "self_s":
            out[name] = layer_s[head]
        elif field == "rows_per_s":
            out[name] = _ratio(counts[f"{head}.rows"], self_s[head])
        elif name == "composite.support_hit_ratio":
            out[name] = _ratio(counts["composite.rows_in_support"], counts["composite.rows"])
        elif head in SPAN_LAYER and field == "calls":
            out[name] = calls[head]
        elif head in SPAN_LAYER and field == "s":
            out[name] = self_s[head]
        else:
            out[name] = counts[name]
    return out


# -- counters -----------------------------------------------------------------


def _rows(kind, contains=None, support_of=None):
    """Counts the rows a map kernel is given and, with ``support_of``, how
    many of them lie in the support it declares (via the untraced
    ``contains``)."""

    def counter(tr, result, m, pts, *rest):
        tr.count(f"{kind}.rows", len(pts))
        if support_of is not None:
            inside = contains(support_of(m), pts)
            tr.count(f"{kind}.rows_in_support", int(inside.sum()))

    return counter


def _eval_limit(tr, lv, *args):
    tr.count("eval_limit.steps", lv.steps)
    key = {"settled": "census.settled", "tol-converged": "census.tol_converged",
           "budget-exhausted": "census.budget_exhausted"}.get(lv.status)
    if key is not None:
        tr.count(key)


def _apply_truncated(tr, out, seq, n, pts):
    tr.count("apply_truncated.stage_applications", n)
    tr.count("apply_truncated.rows", n * len(pts))


def _union_diameter(tr, _d, boxes):
    tr.count("union_diameter.corner_pairs", (8 * len(boxes)) ** 2)


def install(tracer: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    """Wrap the traced callables of the given knotiso modules (keyed by
    short module name).  Returns the originals for ``uninstall``."""
    cli, engine, geometry, maps = (modules[k] for k in ("cli", "engine", "geometry", "maps"))
    diagram, scenarios, canonical = (modules[k] for k in ("diagram", "scenarios", "canonical"))
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def span(owner, attr, name, counter=None, error_counter=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), counter, error_counter))

    contains = geometry.Box.contains_array

    # cli: the verbs and what they call, where cli imported them
    span(cli, "cmd_run", "cli.cmd_run")
    span(cli, "cmd_frames", "cli.cmd_frames")
    span(cli, "report_lines", "cli.report_lines")
    span(cli, "probe_scenario", "cli.probe_scenario")
    span(cli, "eval_limit_isotopy", "eval_limit", _eval_limit)
    span(cli, "check_hypotheses", "check_hypotheses")
    span(cli, "uniform_convergence_probe", "uniform_probe")
    span(cli, "injectivity_probe", "injectivity_probe")
    span(cli, "map_curve", "map_curve",
         lambda tr, c, *a: tr.count("map_curve.vertices", len(c.vertices)))
    span(cli, "write_curve", "write_curve",
         lambda tr, _r, curve, *a: tr.count("write_curve.vertices", len(curve.vertices)))
    span(cli, "render_svg", "render_svg",
         lambda tr, svg, *a: tr.count("render_svg.bytes", len(svg.encode())))
    span(cli, "find_ball_factoring", "ball_factoring.find")

    glue = cli.glue_schedule
    isotopy = engine.Isotopy

    def glue_schedule(*args, **kwargs):
        iso = glue(*args, **kwargs)
        return isotopy(support=iso.support, map_at=tracer.wrap("glue_map_at", iso.map_at))

    patch(cli, "glue_schedule", glue_schedule)
    builders = cli.SCENARIO_BUILDERS
    patch(cli, "SCENARIO_BUILDERS",
          {k: tracer.wrap("scenarios.build", b) for k, b in builders.items()})

    # engine: helpers it looks up in its own globals
    span(engine, "union_diameter", "union_diameter", _union_diameter)
    span(engine, "tail_boxes", "tail_boxes",
         lambda tr, boxes, *a: tr.count("tail_boxes.boxes", len(boxes)))
    span(engine, "apply_truncated", "apply_truncated", _apply_truncated)
    stage = engine.MoveSequence.stage
    build = tracer.wrap("stage_build", stage)

    def stage_or_build(seq, k):
        return stage(seq, k) if k in seq._cache else build(seq, k)

    patch(engine.MoveSequence, "stage", stage_or_build)

    # maps: the kernels, by class
    span(maps.ConeMap, "apply_array", "cone", _rows("cone", contains, lambda m: m.region))
    span(maps.ConeMap, "__init__", "cone.init")
    unsquish = _rows("unsquish", contains, lambda m: m.params.outer)
    span(maps.UnsquishMap, "apply_array", "unsquish", unsquish)
    span(maps.UnsquishMap, "apply_inverse_array", "unsquish", unsquish)
    span(maps.AffineMap, "apply_array", "affine", _rows("affine"))
    span(maps.CompositeMap, "apply_array", "composite", _rows("composite", contains, lambda m: m.support))
    span(scenarios.PowerMap1D, "apply_array", "power1d", _rows("power1d"))

    # geometry
    def counted_contains(box, pts, *args, **kwargs):
        if tracer.active:
            tracer.count("contains_array.calls")
            tracer.count("contains_array.rows", len(pts))
        return contains(box, pts, *args, **kwargs)

    patch(geometry.Box, "contains_array", counted_contains)
    span(geometry.PLCurve, "densified", "densified")
    span(diagram, "multiscale_close_pairs", "multiscale_close_pairs",
         lambda tr, pairs, *a: tr.count("multiscale_close_pairs.pairs", len(pairs[0])))
    span(diagram, "find_crossings", "find_crossings",
         lambda tr, cs, *a: tr.count("find_crossings.crossings", len(cs)),
         error_counter="find_crossings.degenerate")

    # move construction, where scenarios and canonical imported it
    for name in ("chained_isotopy", "reversed_isotopy", "unsquish_isotopy"):
        span(scenarios, name, "moves.build")
    for name in ("conjugated_isotopy", "staged_isotopy"):
        span(canonical, name, "moves.build")
    span(scenarios, "conjugated_insert", "canonical.conjugated_insert")
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
