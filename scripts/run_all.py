"""Run every registered scenario end to end and summarize the verdicts.

Runs ``knotiso run`` on each scenario in turn, writing the same reports
the CLI writes to --out, and prints one line per scenario: ``ok``,
``MISMATCH``, or the CLI's exit code with its one-line message (exit 4
for a map that cannot be built or evaluated), and keeps going.  Exit
status is 1 if any scenario did not come out ok, and 2 for a bad flag.

Usage: python3 scripts/run_all.py [--out reports] [--depth 20] [--horizon 20] [--seed 0]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

from knotiso.cli import RunConfig, main as knotiso
from knotiso.scenarios import SCENARIO_BUILDERS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("reports"))
    ap.add_argument("--depth", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        RunConfig(scenario="", depth=args.depth, horizon=args.horizon, seed=args.seed)
    except ValueError as exc:
        ap.error(str(exc))

    flags = [f"--{k}={v}" for k, v in vars(args).items()]
    failures = 0
    for name in SCENARIO_BUILDERS:
        t0 = time.perf_counter()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = knotiso(["run", "--scenario", name, *flags])
        ms = (time.perf_counter() - t0) * 1000.0
        failures += status != 0
        verdict = {0: "ok", 1: "MISMATCH"}.get(status, f"exit {status}")
        line = f"{name:25s} {verdict}  {ms:6.0f} ms"
        print(f"{line}  {err.getvalue().strip()}" if status > 1 else line)
    print(f"reports in {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
