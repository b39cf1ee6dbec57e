"""Smoke tests: the scripts in scripts/ run against the current package."""
import os
import subprocess
import sys
from pathlib import Path

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
