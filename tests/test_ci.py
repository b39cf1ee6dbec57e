"""The CI workflow parses and runs the Tier-1 and benchmark-harness tests."""
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_workflow_runs_both_suites_on_python_311():
    wf = yaml.safe_load(WORKFLOW.read_text())
    steps = wf["jobs"]["tests"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert TIER1 in runs
    assert "python -m pytest -q perfbench/tests" in runs
    setup = next(s for s in steps if s.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"
