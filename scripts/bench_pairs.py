"""Benchmark two source trees in alternating pairs and record the result.

    python3 scripts/bench_pairs.py --parent OLD --change NEW \\
        --workload frames_film --seeds 101-110 --label my_change

For each seed it runs ``perfbench/run.py --trace 0`` of both trees, one
after the other, flipping which tree goes first with each seed so that a
slow or fast spell of the host does not favour one side.  Each tree is run
with its own ``perfbench`` and ``src``, with ``PYTHONDONTWRITEBYTECODE=1``
and after its ``src`` ``__pycache__`` folders are removed, so that both
sides' ``setup_s`` time an import that compiles the package from source:
a tree that kept bytecode from an earlier run would import about twice as
fast as one that did not.  The final metrics line of every run
is kept, and a summary adds, per end-to-end metric, each side's median and
quartiles, how many seed pairs the change won, and two verdicts:

* ``claimable``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range, so a gain in this metric may be claimed;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's ``bound`` from BENCHMARK.json, a fraction of the
  parent's median.

Each workload's entry also says whether the two trees gave the same
outputs: ``outputs_match`` holds when, at every seed, both gave the same
report hashes and the same failed ops (the ``report_sha256`` and
``failures`` of the run's detail line) and the same frames, and
``mismatched_ops`` lists the op keys where they differ.  The benchmark
checks a frame only by reading its curve back, so each tree also replays
the workload's frames ops at each seed once, in order, in one process
through ``knotiso.cli.main``, so that its film carries across ops as in a
benchmark pass; a frames op's output is its exit status, its stderr and
the sha256 of each file it wrote.

With ``--trace-seed`` (one seed or several, as ``--seeds`` takes them) it
then runs each tree once more with ``--trace 1`` at each of those seeds,
the first side flipping with each seed as above, and records, next to
both sides' per-layer metrics, the layers that moved, read off each
side's median over the traced runs, the largest relative change first:
a timed layer (in s or 1/s) where the change's median lies outside the
parent's interquartile range, and any other layer, a count, where the
medians differ; the traced pass's own time and overhead are left out.

Each workload's entry also records ``src_lines``, the number of lines of
each tree's ``src/knotiso/*.py``, so a change that removes code reads
its count off the record.

Each run lasts the ``run_seconds`` of the change tree's BENCHMARK.json.
The record goes to ``BENCH_<label>.json`` in the current directory.  An
existing record is extended: the workload's entry is replaced and the
others kept, so one label can hold several workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ORDER = "parent and change alternate, the first side flipping with each seed"


def parse_seeds(text: str) -> list[int]:
    """``101-110`` or ``1,4,9`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def read_benchmark(benchmark: Path) -> tuple[float, dict[str, tuple[str, float]]]:
    """From BENCHMARK.json: the run length in seconds, and each end-to-end
    metric's name -> (better, bound), better being "lower" or "higher"."""
    spec = json.loads(benchmark.read_text())
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(
    parent: list[dict], change: list[dict], metrics: dict[str, tuple[str, float]]
) -> dict[str, dict]:
    """Per metric: both sides' quartiles, the seed pairs the change won,
    and whether a gain is ``claimable`` and the change ``within_bound``.

    ``parent`` and ``change`` are lists of ``{"seed": s, "line": {...}}``
    entries, where ``line`` is the metrics line of ``perfbench/run.py``;
    the two sides are paired by seed.  ``metrics`` maps a name to its
    direction and bound, as ``read_benchmark`` returns them.  A pair is
    won when the change's value is strictly better in the metric's
    direction.
    """
    by_seed = {e["seed"]: e["line"]["metrics"] for e in parent}
    pairs = [(by_seed[e["seed"]], e["line"]["metrics"]) for e in change if e["seed"] in by_seed]
    if not pairs:
        raise ValueError("no seed was run on both sides")
    summary = {}
    for name, (better, bound) in metrics.items():
        if not all(name in p and name in c for p, c in pairs):
            continue
        old = [p[name]["value"] for p, _ in pairs]
        new = [c[name]["value"] for _, c in pairs]
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (o - n) > 0 for o, n in zip(old, new))
        q_old, q_new = quartiles(old), quartiles(new)
        # the change's median gain, positive when it is better
        gain = sign * (q_old["median"] - q_new["median"])
        summary[name] = {
            "better": better,
            "parent": q_old,
            "change": q_new,
            "pairs_won": won,
            "pairs": len(pairs),
            "claimable": 10 * won >= 9 * len(pairs) and gain > q_old["q3"] - q_old["q1"],
            "within_bound": gain >= -bound * abs(q_old["median"]),
        }
    return summary


# whole-pass differences of a traced run, whose sign and size the
# pass-to-pass noise decides; both sides' values stay in the record
WHOLE_PASS = {"trace.pass_s", "trace.overhead_s"}

# the units of the per-layer metrics that time something, which vary from
# run to run; every other per-layer metric counts work done
TIMED = {"s", "1/s"}


def moved_layers(parent: list[dict], change: list[dict], end_to_end: set[str]) -> list[dict]:
    """The per-layer metrics that moved between two sides' traced metrics
    lines, one per traced run, each with both sides' medians and change /
    parent, the largest relative change (either way) first.  A timed
    metric moved when the change's median lies outside the parent's
    interquartile range, any other when the medians differ.  Metrics in
    ``end_to_end`` or ``WHOLE_PASS`` are left out, and so are those whose
    parent median is 0 or that some run lacks."""
    moved = []
    for name, entry in parent[0].items():
        if name in end_to_end or name in WHOLE_PASS or not all(name in line for line in parent + change):
            continue
        q = quartiles([line[name]["value"] for line in parent])
        old, new = q["median"], quartiles([line[name]["value"] for line in change])["median"]
        if old == 0 or (q["q1"] <= new <= q["q3"] if entry["unit"] in TIMED else new == old):
            continue
        moved.append({"metric": name, "parent": old, "change": new, "ratio": new / old})
    moved.sort(key=lambda m: -_moved_by(m["ratio"]))
    return moved


def _moved_by(ratio: float) -> float:
    """How far a metric moved, as |log(change / parent)|.  A value that
    fell to 0 or changed sign, a ratio <= 0, ranks as a rise by the same
    difference |change - parent| would: log(2 - ratio)."""
    return abs(math.log(ratio)) if ratio > 0 else math.log(2.0 - ratio)


def mismatched_ops(parent: dict[int, dict], change: dict[int, dict]) -> list[str]:
    """The op keys, sorted, whose report hash, failure or frames differ
    between the two sides at some seed both ran.  Each side maps a seed to
    its ``outputs``: the ``report_sha256`` (op key -> hash) and the
    ``failures`` ("<key> <status>: <detail>") of its run's detail line,
    and the ``frames`` of its ``replay`` (op key -> output)."""
    keys: set[str] = set()
    for seed in parent.keys() & change.keys():
        old, new = parent[seed], change[seed]
        for field in ("report_sha256", "frames"):
            was, now = old[field], new[field]
            keys.update(k for k in was.keys() | now.keys() if was.get(k) != now.get(k))
        keys.update(f.split(" ", 1)[0] for f in set(old["failures"]) ^ set(new["failures"]))
    return sorted(keys)


# run by ``replay`` with argv tree, workload, seed, output folder
REPLAY = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
tree, workload, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench"]
from workloads import WORKLOADS
ops = [op for op in WORKLOADS[workload](seed) if op.verb == "frames"]
if ops:
    from knotiso.cli import main
got = {}
for k, op in enumerate(ops):
    folder = out / str(k)
    times = ",".join(map(repr, op.times))
    argv = ["frames", "--scenario", op.scenario, "--depth", str(op.depth)]
    argv += ["--times", times, "--out", str(folder)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(folder.glob("*"))}
    got[op.key] = {"status": status, "stderr": err.getvalue(), "files": files}
print(json.dumps(got))
"""


def replay(tree: Path, workload: str, seed: int) -> dict[str, dict]:
    """The frames ops of a workload at a seed, from the tree's
    ``perfbench/workloads.py``, run in order in one process of the tree's
    ``src``: op key -> its exit status, its stderr and the sha256 of each
    file it wrote, by name; empty for a workload with no frames op."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c", REPLAY, str(tree), workload, str(seed), out]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"replay of {workload} at seed {seed} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def src_lines(tree: Path) -> int:
    """The number of lines of the tree's ``src/knotiso/*.py``."""
    return sum(len(path.read_text().splitlines()) for path in (tree / "src" / "knotiso").glob("*.py"))


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """The metrics line of one benchmark run of a tree, its machine and
    its outputs, the report hashes and failures of its detail line; the
    run imports the tree's ``src`` with no bytecode, kept or written."""
    cmd = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", "1" if trace else "0",
    ]
    for cache in sorted((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    detail = json.loads(lines[-2])["detail"]
    outputs = {"report_sha256": detail["report_sha256"], "failures": detail["failures"]}
    return {"line": json.loads(lines[-1]), "machine": detail["machine"], "outputs": outputs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the tree before the change")
    ap.add_argument("--change", type=Path, required=True, help="the tree with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 101-110")
    ap.add_argument("--label", required=True)
    ap.add_argument("--note", default="", help="what the change is, for the record")
    ap.add_argument("--trace-seed", type=parse_seeds, help="also compare traced runs at these seeds")
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds, metrics = read_benchmark(trees["change"] / "BENCHMARK.json")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    outputs: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    machine = None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_side(trees[side], args.workload, seed, seconds)
            machine = machine or got["machine"]
            runs[side].append({"seed": seed, "line": got["line"]})
            outputs[side][seed] = {**got["outputs"], "frames": replay(trees[side], args.workload, seed)}
            value = got["line"]["metrics"].get("pass_s", {}).get("value")
            print(f"seed {seed} {side}: pass_s {value}", file=sys.stderr)

    path = Path(f"BENCH_{args.label}.json")
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(
        label=args.label,
        change=args.note or record.get("change", ""),
        command=f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
        order=ORDER,
        machine=machine,
    )
    mismatched = mismatched_ops(outputs["parent"], outputs["change"])
    entry = {
        "parent": runs["parent"],
        "change": runs["change"],
        "summary": summarize(runs["parent"], runs["change"], metrics),
        "outputs_match": not mismatched,
        "mismatched_ops": mismatched,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
    }
    if args.trace_seed is not None:
        traced: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.trace_seed):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                got = run_side(trees[side], args.workload, seed, seconds, trace=True)
                traced[side].append(got["line"]["metrics"])
        entry["traced"] = {
            "seeds": args.trace_seed,
            "moved": moved_layers(traced["parent"], traced["change"], set(metrics)),
            **traced,
        }
    record.setdefault("workloads", {})[args.workload] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["workloads"][args.workload]["summary"]))
    if mismatched:
        print(f"outputs differ at {len(mismatched)} ops: {' '.join(mismatched)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
