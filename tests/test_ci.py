"""The CI workflow parses and runs the Tier-1 command, whose test paths
take in the benchmark-harness tests, and the test configuration turns
runtime warnings into failures."""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_workflow_runs_both_suites_on_python_311():
    yaml = pytest.importorskip("yaml")
    wf = yaml.safe_load(WORKFLOW.read_text())
    steps = wf["jobs"]["tests"]["steps"]
    runs = [s["run"] for s in steps if "run" in s]
    assert TIER1 in runs
    # the harness tests run once, inside Tier-1
    assert not any("perfbench/tests" in r for r in runs)
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert config["tool"]["pytest"]["ini_options"]["testpaths"] == ["tests", "perfbench/tests"]
    setup = next(s for s in steps if s.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"


def test_runtime_warnings_fail_the_suite():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "error::RuntimeWarning" in config["tool"]["pytest"]["ini_options"]["filterwarnings"]
