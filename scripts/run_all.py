"""Run every registered scenario end to end and summarize the verdicts.

Produces the same reports the CLI writes, one per scenario, in --out, and
prints a one-line summary per scenario.  Exit status is nonzero if any
computed verdict disagrees with its declared expectation.

Usage: python3 scripts/run_all.py [--out reports] [--depth 20] [--horizon 20] [--seed 0]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

from knotiso.cli import RunConfig, cmd_run
from knotiso.scenarios import SCENARIO_BUILDERS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("reports"))
    ap.add_argument("--depth", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    failures = 0
    for name in SCENARIO_BUILDERS:
        cfg = RunConfig(
            scenario=name,
            depth=args.depth,
            horizon=args.horizon,
            seed=args.seed,
            out=args.out,
        )
        t0 = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cmd_run(cfg)
        ok = status == 0
        failures += not ok
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"{name:25s} {'ok' if ok else 'MISMATCH'}  {ms:6.0f} ms")
    print(f"reports in {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
