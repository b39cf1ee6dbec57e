"""The benchmark's three workloads as fixed op lists built from a seed.

An op is one call of a CLI verb (``cmd_run`` or ``cmd_frames``) with one
config.  A pass runs a workload's op list once, in order, in one process:
a closed loop with a single client.  The seed picks the inputs; it never
picks how much work a pass does or which ops are expected to fail.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The registered scenarios at the time the benchmark was defined.  Named
# here rather than read from the registry so that a scenario added later
# does not change the workload.
RUN_SCENARIOS = (
    "countable_r1",
    "countable_r2_stage1",
    "countable_r2_stage2",
    "recursive_r1",
    "trefoil_chain",
    "trefoil_chain_extended",
    "fox_remarkable",
    "1d_counterexample",
)

# The r2 scenarios and trefoil_chain_extended repeat the r1 and trefoil
# constructions at more points, and 1d_counterexample is trivial.
FILM_SCENARIOS = ("countable_r1", "recursive_r1", "trefoil_chain", "fox_remarkable")

# One drawn frame in each of the first seven stages of the default glued
# schedule t_k = 1 - 2^-k, at a local time drawn from the middle of the
# stage.  Fixing the stage fixes the work of each op and which frames
# fail (fox_remarkable is degenerate from late in stage 3 on), so the
# seed moves the inputs but not the amount of work.
FILM_STAGES = range(1, 8)
FILM_LOCAL_TIME = (0.1, 0.8)

FILM_DEPTH = 20


@dataclass(frozen=True)
class Op:
    verb: str  # "run" | "frames"
    scenario: str
    depth: int
    horizon: int
    seed: int
    times: tuple[float, ...] = ()

    @property
    def key(self) -> str:
        """Identifies the config; ops with equal keys give equal output."""
        times = ",".join(repr(t) for t in self.times)
        return f"{self.verb}:{self.scenario}:{self.depth}:{self.horizon}:{self.seed}:{times}"


def _stage_time(k: int, u: float) -> float:
    start, end = 1.0 - 2.0 ** (1 - k), 1.0 - 2.0 ** (-k)
    return start + u * (end - start)


def film_times(rng: random.Random) -> tuple[float, ...]:
    """0, one sorted draw per stage in FILM_STAGES, and 1."""
    lo, hi = FILM_LOCAL_TIME
    draws = tuple(_stage_time(k, rng.uniform(lo, hi)) for k in FILM_STAGES)
    return (0.0,) + draws + (1.0,)


def verdict_sweep(seed: int) -> list[Op]:
    return [Op("run", s, 20, 20, seed) for s in RUN_SCENARIOS]


def deep_run(seed: int) -> list[Op]:
    # depth 40 is the deepest every scenario survives at this commit
    return [Op("run", s, 40, 40, seed) for s in RUN_SCENARIOS]


def frames_film(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op("frames", s, FILM_DEPTH, 20, seed, (t,))
        for s in FILM_SCENARIOS
        for t in film_times(rng)
    ]


WORKLOADS = {
    "verdict_sweep": verdict_sweep,
    "deep_run": deep_run,
    "frames_film": frames_film,
}

# The pass_s each workload reported on the reference machine (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4, BLAS pinned to one thread).  A run
# makes a fixed number of passes derived from these, so the parent and a
# change measure the same ops and their latency percentiles sit at the
# same ranks.
REFERENCE_PASS_S = {
    "verdict_sweep": 3.1,
    "deep_run": 3.8,
    "frames_film": 8.3,
}


def passes_for(workload: str, seconds: float) -> int:
    """Timed passes for a run that lasts about ``seconds`` on the
    reference machine; at least two, so the pass median has company."""
    return max(2, math.ceil(seconds / REFERENCE_PASS_S[workload]))
