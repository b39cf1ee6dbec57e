"""Acceptance criteria, one test per criterion.

`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line per
criterion.  Expected values marked as derived are frozen from independent
oracles (brute-force containment, direct power iteration, half-diagonal
formulas) computed inside the tests themselves.
"""
import filecmp
import math
import time

import numpy as np

from knotiso.ball_factoring import dyadic_cubes, find_ball_factoring
from knotiso.canonical import CANONICAL_BOX, kink_map
from knotiso.cli import RunConfig, main, report_lines
from knotiso.engine import (
    apply_truncated,
    check_hypotheses,
    infinite_motion_census,
    injectivity_probe,
    seam_values,
    uniform_convergence_probe,
)
from knotiso.geometry import Box, Point3, curve_is_simple, distance, union_diameter
from knotiso.maps import (
    AffineMap,
    ConeMap,
    IdentityMap,
    UnsquishMap,
    UnsquishParams,
    _box_radial_scale,
    conjugate,
)
from knotiso.scenarios import (
    SCENARIO_BUILDERS,
    build_1d_counterexample,
    build_snowflake,
    rec_apex,
    rec_squish_constant,
    rec_unsquish_params,
    snowflake_sup_deviation,
)

TOL = 1e-6
DEPTH = 20
HORIZON = 20


def test_criterion_01_verdict_regression_under_budget():
    # all registered scenarios, built fresh, reproduce their declared
    # verdicts at depth 20 / horizon 20 / tol 1e-6 in under 60 seconds
    t0 = time.time()
    for name, build in SCENARIO_BUILDERS.items():
        cfg = RunConfig(scenario=name, depth=DEPTH, horizon=HORIZON, tol=TOL, seed=0)
        _, match = report_lines(build(), cfg)
        assert match, name
    assert time.time() - t0 < 60.0


def test_criterion_02_map_correctness():
    rng = np.random.default_rng(2)
    n = 10_000
    region = CANONICAL_BOX
    cone = ConeMap(region, Point3(0, 0, 0), Point3(0.3, -0.2, 0.15))
    unsq = UnsquishMap(
        UnsquishParams(
            outer=region,
            inner=region.scaled_about_center(0.5),
            apex=Point3(0.1, 0.0, -0.05),
            c=0.4,
        ),
        t=1.0,
    )
    target = Box.from_center(Point3(4, 1, -2), Point3(0.5, 0.25, 0.25))
    comp = conjugate(AffineMap.box_to_box(region, target), kink_map(), target)
    for m in (IdentityMap(support=region), cone, unsq, comp):
        far = rng.uniform(2.0, 10.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
        outside = far[~m.support.contains_array(far)]
        img = m.apply_array(outside)
        if m is comp:
            # affine conjugation is exact only to roundoff off-support
            assert np.abs(img - outside).max() < 1e-12
        else:
            # primitive maps are bitwise identity outside the support
            assert np.array_equal(img, outside)
        # inverse roundtrip everywhere
        lo = m.support.lo.as_array() - 1.0
        hi = m.support.hi.as_array() + 1.0
        pts = lo + rng.random((n, 3)) * (hi - lo)
        back = m.apply_inverse_array(m.apply_array(pts))
        assert np.sqrt(((back - pts) ** 2).sum(-1)).max() < 1e-9
    # cone maps fix the region boundary within 1e-12
    boundary = region.sample(rng, n)
    axes = rng.integers(0, 3, n)
    boundary[np.arange(n), axes] = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
    assert np.abs(cone.apply_array(boundary) - boundary).max() < 1e-12


def test_criterion_03_unsquish_exactness():
    rng = np.random.default_rng(3)
    apex = Point3(0.15, -0.1, 0.05)
    for c in (0.3, 0.5, 0.9):
        params = UnsquishParams(
            outer=Box.from_center(Point3(0, 0, 0), Point3(2, 2, 2)),
            inner=Box.from_center(Point3(0, 0, 0), Point3(1, 1, 1)),
            apex=apex,
            c=c,
        )
        m = UnsquishMap(params, t=1.0)
        a = apex.as_array()
        d = rng.normal(size=(1000, 3))
        d /= np.sqrt((d**2).sum(-1))[:, None]
        # reach of the inner box from the apex along each direction
        reach = _box_radial_scale(params.inner, np.broadcast_to(a, d.shape), d)
        # low branch: path parameter s = f/2 <= c/2, moved exactly 1/c out
        f = rng.uniform(0.01, 0.99 * c, 1000)
        pts = a + (f * reach)[:, None] * d
        img = m.apply_array(pts)
        r0 = np.sqrt(((pts - a) ** 2).sum(-1))
        r1 = np.sqrt(((img - a) ** 2).sum(-1))
        assert np.abs(r1 - r0 / c).max() < 1e-9
        # high branch: s > c/2, image lands in outer minus inner
        f_hi = rng.uniform(1.02 * c, 0.98, 1000)
        pts_hi = a + (f_hi * reach)[:, None] * d
        img_hi = m.apply_array(pts_hi)
        assert params.outer.contains_array(img_hi).all()
        assert not params.inner.contains_array(img_hi, strict=True).any()


def test_criterion_04_composite_lower_bound():
    # stage composites never pull protected-zone points closer to the
    # relay apex than they started
    s = SCENARIO_BUILDERS["recursive_r1"]()
    c = rec_squish_constant()
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 5):
        comp = s.moves.stage(k)[0].time_one()
        qk = rec_apex(k).as_array()
        inner = rec_unsquish_params(k, c).inner
        d = rng.normal(size=(1000, 3))
        d /= np.sqrt((d**2).sum(-1))[:, None]
        reach = _box_radial_scale(inner, np.broadcast_to(qk, d.shape), d)
        f = rng.uniform(0.0, 1.0, 1000)
        pts = qk + (f * c * reach)[:, None] * d
        img = comp.apply_array(pts)
        img_q = comp.apply_array(qk[None, :])[0]
        before = np.sqrt(((pts - qk) ** 2).sum(-1))
        after = np.sqrt(((img - img_q) ** 2).sum(-1))
        assert (after >= before - 1e-9).all(), k


def test_criterion_05_uniform_convergence_bound():
    rng = np.random.default_rng(5)
    for name, build in SCENARIO_BUILDERS.items():
        s = build()
        if s.expected.hypotheses != "pass":
            continue
        for n, m in ((5, 15), (10, 20)):
            boxes = s.moves.boxes(n + 1, m)
            grid = [Point3.from_array(p) for p in s.moves.container.sample(rng, 200)]
            # include points inside the tail supports: that is where the
            # deviation is realized
            for b in boxes:
                grid.extend(Point3.from_array(p) for p in b.sample(rng, 10))
            dev = uniform_convergence_probe(s.moves, n, m, grid)
            assert dev <= union_diameter(boxes) + 1e-9, (name, n, m)


def test_criterion_06_failure_detection():
    fox = SCENARIO_BUILDERS["fox_remarkable"]()
    sep = injectivity_probe(fox.moves, 20, fox.probe_pairs)
    assert sep < 1e-3
    assert infinite_motion_census(fox.moves, 30, fox.census_samples, horizon=50) > 0

    ext = SCENARIO_BUILDERS["trefoil_chain_extended"]()
    rep = check_hypotheses(ext.moves, HORIZON, TOL)
    assert rep.first_violation == 1
    assert all(d >= 1.0 for _, d in rep.tail_diameters)

    s1d = build_1d_counterexample()
    rep1d = check_hypotheses(s1d.moves, HORIZON, TOL)
    assert rep1d.first_violation == 1
    img = apply_truncated(
        s1d.moves, 300, np.array([[0.5, 0.0, 0.0], [0.9, 0.0, 0.0]])
    )
    assert img[0, 0] < 1e-6 and img[1, 0] < 1e-6


def test_criterion_07_seam_continuity():
    rng = np.random.default_rng(7)
    for name in ("countable_r1", "recursive_r1"):
        s = SCENARIO_BUILDERS[name]()
        pts = s.moves.container.sample(rng, 1000)
        for k in range(1, 10):
            left, right = seam_values(s.moves, k, pts)
            assert np.abs(left - right).max() < 1e-9, (name, k)


def test_criterion_08_ball_factoring():
    p = Point3(0, 0, 0)
    fam = dyadic_cubes(p)
    eps, n0 = find_ball_factoring(fam, horizon=10)
    assert eps == 0.25
    # independent oracle: brute-force smallest region whose corners all sit
    # strictly inside the ball (half-diagonal formula)
    oracle = next(
        n
        for n in range(1, 11)
        if (math.sqrt(3) / 2.0) * 2.0 ** (1 - n) < 0.25
    )
    assert n0 == oracle == 3
    # containment chain certified exactly
    assert all(distance(c, p) < eps for c in fam.region(n0).corners())
    assert fam.region(1).wall_distance(p) > eps


def test_criterion_09_snowflake():
    iterates = build_snowflake(0.25, 6)
    assert len(iterates) == 6
    for c in iterates:
        assert curve_is_simple(c, 1e-6)
    devs = [snowflake_sup_deviation(a, b) for a, b in zip(iterates, iterates[1:])]
    for d_prev, d_next in zip(devs, devs[1:]):
        assert 0.2 <= d_next / d_prev <= 0.3


def test_criterion_10_determinism(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        status = main(
            [
                "run",
                "--scenario",
                "countable_r1",
                "--depth",
                "10",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert status == 0
    assert filecmp.cmp(
        dirs[0] / "countable_r1_10_11.report",
        dirs[1] / "countable_r1_10_11.report",
        shallow=False,
    )
