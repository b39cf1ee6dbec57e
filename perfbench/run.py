"""knotiso benchmark: times the CLI verbs ``run`` and ``frames`` over a
named workload and checks every op's output.

    python3 perfbench/run.py --workload verdict_sweep --seed 1 --seconds 17 --trace 0

Run it from anywhere; it builds nothing and imports knotiso from the
``src`` directory next to ``perfbench``, and fails without a result when
that is missing.  Scratch output goes to a ``.perfbench-*`` directory at
the repository root, removed before exit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
End-to-end times are scaled to the reference host speed (see
``harness.calibrate``).  The line before it holds the details: the
machine, the tail percentile and its sample count, the wall times and
speed factor of each pass, and the sha256 of each report.
``--results FILE`` also writes the whole record, every op included, to
FILE.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, passes_for

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, help="write the full record here as JSON")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "knotiso" / "cli.py").is_file():
        print(f"perfbench: no knotiso sources at {src}", file=sys.stderr)
        return 2
    # before knotiso brings in numpy
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import harness

    ops = WORKLOADS[args.workload](args.seed)
    passes = passes_for(args.workload, args.seconds)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        m = harness.measure(ops, src, work, passes, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = m.all_ops()
    failed = [r for r in records if r.status != "ok"]
    latencies = [r.seconds for p in m.passes for r in p]
    percentile, _ = harness.tail(latencies)
    if args.trace:
        units = {name: unit for name, unit, _ in harness.tracing.PER_LAYER_METRICS}
        values = harness.per_layer(m)
    else:
        units = END_TO_END_UNITS
        values = harness.end_to_end(m, peak_rss_mb)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(m.passes),
        "ops_per_pass": len(ops),
        "machine": machine(),
        "op_s.tail": {"percentile": percentile, "samples": len(latencies)},
        "wall_setup_s": m.setup_s,
        "wall_pass_s": [harness.pass_seconds(p) for p in m.passes],
        "speed_factor": harness.speed_factors([r for p in m.passes for r in p]),
        "traced_pass_s": [harness.pass_seconds(p) for p in m.traced],
        "report_sha256": {r.key: r.sha256 for r in records if r.sha256},
        "failures": sorted({f"{r.key} {r.status}: {r.detail}" for r in failed}),
    }
    result = {
        "correct": not any(r.status == "wrong" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if args.results:
        full = dict(detail, result=result, ops=[vars(r) for r in records])
        args.results.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
