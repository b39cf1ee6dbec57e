"""Reproduce the canonical kink tuning.

The single-loop insert frozen in knotiso.canonical was found by grid search
over two-stage cone pulls acting on the straight x-axis strand through
[-1,1]^3: stage 1 lifts a tent with its tip offset in z, stage 2 swings the
tip past the left run inside a z-elevated box.  This script re-runs a small
neighborhood search around the frozen constants and reports, for each
candidate, the projected crossing count, the z-separation margin at the
crossing, and strand simplicity, confirming the frozen choice sits inside a
robust 1-crossing region.

Usage: python3 scripts/tune_moves.py [--dense N]
"""
from __future__ import annotations

import argparse
import itertools

import numpy as np

from knotiso.canonical import CANONICAL_BOX, KINK_STAGES, kink_map
from knotiso.diagram import find_crossings
from knotiso.geometry import PCG64Stream, PLCurve, curve_is_simple
from knotiso.moves import ConeStage, staged_isotopy


def strand(n: int) -> PLCurve:
    xs = np.linspace(-1.0, 1.0, n)
    zeros = np.zeros_like(xs)
    return PLCurve(np.column_stack([xs, zeros, zeros]), closed=False)


def evaluate(stages: list[ConeStage], n: int) -> tuple[int, float, bool]:
    m = staged_isotopy(stages, CANONICAL_BOX).time_one()
    pts = m.apply_array(strand(n).points)
    curve = PLCurve(pts, closed=False)
    crossings = find_crossings(curve)
    margin = min((c.z_over - c.z_under for c in crossings), default=np.inf)
    return len(crossings), float(margin), curve_is_simple(curve, 1e-9)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dense", type=int, default=400, help="strand vertices")
    args = ap.parse_args()

    tent, swing = KINK_STAGES
    print("frozen constants:")
    print(f"  tent tip   {tent.p1}")
    print(f"  swing goal {swing.p1}")
    k, margin, simple = evaluate(list(KINK_STAGES), args.dense)
    print(f"  -> crossings={k} z-margin={margin:.3f} simple={simple}")
    for n in (100, 400, 1200):
        k, margin, simple = evaluate(list(KINK_STAGES), n)
        print(f"  density {n}: crossings={k} z-margin={margin:.3f} simple={simple}")

    print("\nneighborhood sweep around the swing target:")
    base = swing.p1
    for dx, dz in itertools.product((-0.1, 0.0, 0.1), repeat=2):
        target = base + (dx, 0.0, dz)
        if not swing.region.contains_array(target, strict=True):
            continue
        cand = [tent, ConeStage(region=swing.region, p0=swing.p0, p1=target)]
        k, margin, simple = evaluate(cand, args.dense)
        mark = " <- frozen" if (dx, dz) == (0.0, 0.0) else ""
        print(
            f"  target=({target[0]:+.2f},{target[1]:+.2f},{target[2]:+.2f}) "
            f"crossings={k} margin={margin:+.3f} simple={simple}{mark}"
        )

    # sanity: the frozen kink map is exactly invertible on a sample
    km = kink_map()
    rng = PCG64Stream(0)
    pts = CANONICAL_BOX.sample(rng, 2000)
    err = np.abs(km.apply_inverse_array(km.apply_array(pts)) - pts).max()
    print(f"\nroundtrip error on 2000 points: {err:.3g}")


if __name__ == "__main__":
    main()
