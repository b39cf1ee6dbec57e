"""The CI workflow parses and runs the Tier-1 command, whose test paths
take in the benchmark-harness tests, on the oldest Python the package
admits, with the numpy the golden hashes were made with, the scipy whose
version the benchmark harness records and the pytest, hypothesis and
PyYAML that Tier-1 passes with, keeps Hypothesis's patches when Tier-1
fails, and the test configuration turns runtime warnings into failures.
That numpy sums the three columns of a coordinate-major batch as it sums
row-major rows is pinned too.  The
package runs on numpy alone: no module of it imports scipy, and none
imports a name it never uses.  No verb loads ``numpy.random``: building
the scenarios, ``check`` and ``frames`` draw no random numbers, and
``run`` draws its probe grid from ``geometry.PCG64Stream``; outside the
tests no code names ``numpy.random``.  Only ``engine`` names a hypothesis
or reads a condition row's verdict.  Every name the benchmark's tracer
hooks is still in the package, and uninstalling puts each one back.
Every top-level function, class and constant in the package, private or public, and every public method of a
public class has a caller outside the tests, with no exception: code
that only tests call lives in ``tests/oracles.py``.  Every map kind
that evaluates points culls through ``LocalMap._on_support``, save three
named kinds, each with its reason, no subscript in ``maps`` or ``engine``
pairs a slice with a non-constant index, and only the end rule
``Isotopy.from_motion`` builds an ``Isotopy`` directly.  No module
keeps an ``lru_cache``, and only constructors write through
``object.__setattr__`` or ``vars(self)``, save a curve's cells memo.
README's Layout block lists exactly the package's modules.  Every committed
benchmark record is whole: named after its label, with its machine and,
for each workload, the end-to-end metrics of both sides' runs."""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
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
    # the oldest Python the package admits is the one CI tests
    assert config["project"]["requires-python"] == f">={setup['with']['python-version']}"


def test_workflow_pins_the_numerics_of_the_golden_hashes():
    # report bytes depend on numpy's summation order: np.vecdot, einsum
    # and .sum(-1) round a 3-term row sum differently
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    install = next(s["run"] for s in steps if "pip install" in s.get("run", "")).split()
    assert "numpy==2.4.6" in install
    # not for the hashes: perfbench/run.py records it in its machine record
    assert "scipy==1.17.1" in install
    # the test tools Tier-1 is known to pass with
    assert {"pytest==9.0.3", "hypothesis==6.155.2", "PyYAML==6.0.3"} <= set(install)


def test_workflow_keeps_the_hypothesis_patches_of_a_failed_run():
    # a falsifying example found in CI can then be pinned with @example
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    upload = next(s for s in steps if s.get("uses", "").startswith("actions/upload-artifact"))
    assert upload["if"] == "failure()"
    assert upload["with"]["path"] == ".hypothesis/patches/"
    assert steps.index(upload) > next(i for i, s in enumerate(steps) if s.get("run") == TIER1)


def test_row_sums_round_alike_in_either_memory_order():
    # the maps hand back coordinate-major images, and the probes sum
    # their squares over the three columns:
    # the report bytes need .sum(-1) to round as it does on row-major rows
    rng = np.random.default_rng(20261019)
    rows = rng.standard_normal((100_000, 3)) * 2.0 ** rng.integers(-40, 40, (100_000, 3))
    squares = rows**2
    row_major = squares.sum(-1)
    coordinate_major = np.asfortranarray(squares).sum(-1)
    assert np.array_equal(row_major.view(np.int64), coordinate_major.view(np.int64))


def test_the_package_does_not_import_scipy():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert not [d for d in config["project"]["dependencies"] if d.startswith("scipy")]
    imported = set()
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.name, node.module))
    assert not [(f, m) for f, m in imported if m.partition(".")[0] == "scipy"]


def test_no_verb_loads_numpy_random(tmp_path):
    # numpy.random costs about 5 MB resident in every process that imports it
    code = (
        "import contextlib, io, sys\n"
        "from pathlib import Path\n"
        "from knotiso import cli\n"
        "for build in cli.SCENARIO_BUILDERS.values():\n"
        "    build()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for name in cli.SCENARIO_BUILDERS:\n"
        "        cli.cmd_check(cli.RunConfig(scenario=name))\n"
        f"    out = Path({str(tmp_path)!r})\n"
        "    cli.cmd_frames(cli.RunConfig(scenario='recursive_r1', times=(0.5,), out=out))\n"
        "    seed = 99999999999999999999999\n"
        "    cli.cmd_run(cli.RunConfig(scenario='countable_r1', depth=8, seed=seed, out=out))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n", (
        "building a scenario, check, frames or run loaded numpy.random: run's seeded"
        " probe grid draws from geometry.PCG64Stream"
    )


def test_the_benchmark_tracer_installs_and_restores_every_hook():
    # the traced pass of perfbench/harness.py, without the workloads: a
    # hooked name that the package no longer has fails here, named
    code = (
        "import sys\n"
        "import knotiso.cli\n"
        "import tracer\n"
        "modules = {name: sys.modules[f'knotiso.{name}'] for name in\n"
        "           ('cli', 'engine', 'geometry', 'maps', 'diagram', 'scenarios', 'canonical')}\n"
        "def now(owner, attr):\n"
        "    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)\n"
        "saved = tracer.install(tracer.Tracer(), modules)\n"
        "hooks = [(getattr(o, '__name__', o), a) for o, a, _ in saved]\n"
        "assert all(now(o, a) is not f for o, a, f in saved), 'a hook was not installed'\n"
        "tracer.uninstall(saved)\n"
        "moved = [h for h, (o, a, f) in zip(hooks, saved) if now(o, a) is not f]\n"
        "assert not moved, f'hooks not restored: {moved}'\n"
        "print(sorted(f'{o.rpartition(\".\")[2]}.{a}' for o, a in hooks))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    hooks = ast.literal_eval(proc.stdout)
    for hook in ("cli.write_curve", "cli.render_svg", "cli.map_curve", "cli.glue_schedule",
                 "diagram.find_crossings", "diagram.multiscale_close_pairs", "PLCurve.densified"):
        assert hook in hooks


def test_numpy_random_is_named_only_in_the_tests():
    # the package and its scripts draw from geometry.PCG64Stream
    named = []
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.random", "numpy.random"):
                named.append((path.name, node.lineno))
            elif isinstance(node, ast.Import):
                named += [(path.name, node.lineno) for a in node.names if a.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)
                ):
                    named.append((path.name, node.lineno))
    assert not named, named


def test_the_verdict_rule_lives_in_engine():
    # the hypotheses are named, and a condition row's verdict read, in
    # engine alone: another module names a hypothesis by engine's
    # constants and reads the verdict off HypothesisReport.failing, so a
    # new sufficient condition is one row in engine
    hypotheses = {"uniform_convergence", "compactness"}
    named, holds = [], []
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in hypotheses:
                named.append((path.name, node.value))
            elif isinstance(node, ast.Attribute) and node.attr == "holds":
                holds.append(path.name)
    assert sorted(named) == [("engine.py", "compactness"), ("engine.py", "uniform_convergence")], named
    assert holds and set(holds) == {"engine.py"}, holds


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # ``import a.b`` binds a
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert not unused, unused


def _writes_through_the_back_door(tree: ast.AST, scope: str = ""):
    """(scope, line) of each ``object.__setattr__`` call and each use of
    ``vars(self)``, scope being the enclosing Class.function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield from _writes_through_the_back_door(node, f"{scope}.{node.name}".lstrip("."))
            continue
        call = ast.unparse(node) if isinstance(node, ast.Call) else ""
        if call.startswith("object.__setattr__(") or call == "vars(self)":
            yield scope, node.lineno
        yield from _writes_through_the_back_door(node, scope)


def test_only_constructors_write_frozen_state():
    # a frozen declaration or an immutable curve is set up once: what a
    # film reuses lives in the film, and no cache outlives its caller
    # unseen; the one memo is a curve's cells
    found, caches = [], []
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")):
        text = path.read_text()
        found += [(path.name, *w) for w in _writes_through_the_back_door(ast.parse(text))]
        caches += [path.name] if "lru_cache" in text else []
    assert not caches, caches
    stray = [(name, scope, line) for name, scope, line in found
             if scope.rpartition(".")[2] not in ("__init__", "__post_init__")
             and (name, scope) != ("geometry.py", "PLCurve.decimal_cells")]
    assert not stray, stray
    assert ("geometry.py", "PLCurve.decimal_cells") in {(name, scope) for name, scope, _ in found}


def test_runtime_warnings_fail_the_suite():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "error::RuntimeWarning" in config["tool"]["pytest"]["ini_options"]["filterwarnings"]


def _named(tree: ast.AST) -> Counter:
    """Every identifier, attribute, imported name and string constant."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _defs(tree: ast.Module):
    """(name, node) of the top-level functions, classes and constants,
    private ones too, and of the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def test_every_public_symbol_has_a_caller_outside_the_tests():
    package = sorted((ROOT / "src" / "knotiso").glob("*.py"))
    callers = package + sorted((ROOT / "scripts").glob("*.py"))
    harness_tests = ROOT / "perfbench" / "tests"
    callers += [
        p for p in sorted((ROOT / "perfbench").rglob("*.py")) if not p.is_relative_to(harness_tests)
    ]
    named: Counter = Counter()
    for path in callers:
        named += _named(ast.parse(path.read_text()))
    unused = set()
    for path in package:
        for name, node in _defs(ast.parse(path.read_text())):
            # a name used only inside its own definition has no caller
            if named[name] <= _named(node)[name]:
                unused.add(name)
    # a name here lost its last caller: delete it or move it to
    # tests/oracles.py; making it private does not hide it
    assert not unused, sorted(unused)


# map kinds that evaluate points without the culling rule, and why
_UNCULLED = {
    "IdentityMap": "it moves nothing",
    "AffineMap": "a frame, with no bounded support",
    "_InverseWrapper": "it delegates to the inverse of a map that culls",
}


def test_every_map_kind_culls_through_on_support():
    classes = {}
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    bases = {
        name: {b.id for b in node.bases if isinstance(b, ast.Name)} for name, node in classes.items()
    }
    kinds = {"LocalMap"}
    while grown := {n for n, b in bases.items() if b & kinds} - kinds:
        kinds |= grown
    uncalled, evaluating = [], set()
    for name in sorted(kinds - {"LocalMap"}):
        for item in classes[name].body:
            if isinstance(item, ast.FunctionDef) and item.name in ("apply_array", "apply_inverse_array"):
                evaluating.add(name)
                culls = any(
                    isinstance(n, ast.Call) and ast.unparse(n.func) == "self._on_support"
                    for n in ast.walk(item)
                )
                if not culls and name not in _UNCULLED:
                    uncalled.append(f"{name}.{item.name}")
    assert not uncalled, uncalled
    # each exception still names a kind that evaluates points
    assert set(_UNCULLED) <= evaluating


# subscripts of maps.py and engine.py that pair a slice with a non-constant
# index, and why each may; there are none: a batch's rows are read with
# compress or take and written one coordinate row at a time (maps._scatter)
_SLICED_INDEXES: dict[str, str] = {}


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_point_batches_move_without_sliced_fancy_indexes():
    # y[:, mask] gathers about four times slower than y.compress(mask,
    # axis=1), and z[:, mask] = v scatters about three times slower than
    # one 1-D write per coordinate row
    found = set()
    for name in ("maps.py", "engine.py"):
        tree = ast.parse((ROOT / "src" / "knotiso" / name).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
                continue
            slices = [isinstance(e, ast.Slice) for e in node.slice.elts]
            if any(slices) and not all(s or _is_literal(e) for s, e in zip(slices, node.slice.elts)):
                found.add(f"{name}:{ast.unparse(node)}")
    assert found <= set(_SLICED_INDEXES), sorted(found - set(_SLICED_INDEXES))
    # each exception still names such a subscript
    assert set(_SLICED_INDEXES) <= found


# the only places that build an Isotopy directly, and why; every isotopy
# kind, the glued schedule included, goes through the end rule of
# Isotopy.from_motion
_DIRECT_ISOTOPIES = {
    "engine.Isotopy.from_motion": "the end rule itself",
}


def _isotopy_builders(tree: ast.Module, module: str):
    """The top-level function or class method around each ``Isotopy(...)``
    call, as module.name (module.<module> outside any)."""
    for top in tree.body:
        defs = [top]
        if isinstance(top, ast.ClassDef):
            defs = top.body
        for d in defs:
            name = getattr(d, "name", "<module>")
            if d is not top:
                name = f"{top.name}.{name}"
            for node in ast.walk(d):
                call = isinstance(node, ast.Call) and ast.unparse(node.func)
                if call and call.rpartition(".")[2] == "Isotopy":
                    yield f"{module}.{name}"


def test_the_readme_layout_lists_exactly_the_package_modules():
    # each module once under src/knotiso/ in README's Layout block, save
    # the package marker __init__.py
    block = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    lines = block.splitlines()
    listed = []
    for line in lines[lines.index("src/knotiso/") + 1 :]:
        if not line.startswith("  "):
            break
        listed.append(line.split()[0])
    modules = [p.name for p in (ROOT / "src" / "knotiso").glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_isotopies_are_built_under_the_end_rule():
    builders = set()
    for path in sorted((ROOT / "src" / "knotiso").glob("*.py")):
        builders.update(_isotopy_builders(ast.parse(path.read_text()), path.stem))
    assert builders - set(_DIRECT_ISOTOPIES) == set()
    # each exception still builds one
    assert set(_DIRECT_ISOTOPIES) <= builders


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_benchmark_records_are_whole(path):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['label']}.json"
    assert record["machine"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    assert record["workloads"]
    for workload, sides in record["workloads"].items():
        assert workload in {w["name"] for w in spec["workloads"]}
        for side in ("parent", "change"):
            runs = sides[side]
            assert runs, (workload, side)
            for run in runs:
                assert metrics <= set(run["line"]["metrics"]), (workload, side, run["seed"])
