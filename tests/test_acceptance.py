"""Acceptance gate: the shipped behavior, one check per line item.

Each test asserts at the tolerance the package promises, so a -v run of
this file reads as a pass/fail scorecard. Randomized checks use a fixed
seed: the gate is a regression suite, not a fuzzer.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from devstrip import (
    BSplineCurve,
    DevelopableStrip,
    InfeasibleProblemError,
    DegenerateCaseError,
    RuledPatch,
    apex_direction,
    control_relation_residuals,
    developability_scan,
    planarity_report,
    propagate_polygon,
    run_cli,
    solve_problem1,
    solve_problem2,
    solve_problem3,
)

import reference as ref
from helpers import (assert_point_close, assert_polygon_close, blossom,
                     curves_pointwise_equal, insert_knot, knot_multiplicity,
                     one_cell_planarity, quartic_real_roots)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def best_time(call, repeats: int = 5) -> float:
    call()  # warm caches so the measurement sees steady-state cost
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_one_piece_strip_in_exact_fractions(quad_curve):
    """First-cell constants and the propagated vertex, at 1e-12, under 1 ms."""
    c0, c1 = np.asarray(ref.QUAD_CONTROL[0]), np.asarray(ref.QUAD_CONTROL[1])
    d0, d1 = np.asarray(ref.QUAD_D0), np.asarray(ref.QUAD_D1)
    # the first net cell pins (lambda*, m*): an overdetermined 3x2 system
    system = np.column_stack((c1 - c0, -(d1 - d0)))
    constants, residual, *_ = np.linalg.lstsq(system, d0 - c0, rcond=None)
    assert float(residual[0]) <= 1e-24
    assert constants[0] == pytest.approx(ref.QUAD_LAMBDA, abs=1e-12)
    assert constants[1] == pytest.approx(ref.QUAD_M, abs=1e-12)

    opposite = propagate_polygon(quad_curve, ref.QUAD_D0,
                                 ref.QUAD_LAMBDA, ref.QUAD_M)
    assert_point_close(opposite.control[1], ref.QUAD_D1, 1e-12)
    assert_point_close(opposite.control[2], (13.0 / 6.0, 1.5, 4.5), 1e-12)
    DevelopableStrip(quad_curve, opposite, ref.QUAD_LAMBDA, ref.QUAD_M)

    def solve():
        d = propagate_polygon(quad_curve, ref.QUAD_D0,
                              ref.QUAD_LAMBDA, ref.QUAD_M)
        DevelopableStrip(quad_curve, d, ref.QUAD_LAMBDA, ref.QUAD_M)

    assert best_time(solve) < 1e-3


def test_02_degree_elevation_keeps_the_surface(quad_strip):
    """Raised net vertices exact, middle cell non-planar, surface unchanged."""
    tilde_c = quad_strip.base.elevate_degree()
    tilde_d = quad_strip.opposite.elevate_degree()
    assert_point_close(tilde_c.control[1], (2.0, 2.0, 0.0), 1e-12)
    assert_point_close(tilde_d.control[2], (37.0 / 18.0, 11.0 / 6.0, 3.5),
                       1e-12)

    middle = one_cell_planarity(
        (tilde_c.control[1], tilde_c.control[2],
         tilde_d.control[1], tilde_d.control[2]))
    assert middle > 1e-3

    scale = max(1.0, float(np.max(np.abs(quad_strip.base.control))),
                float(np.max(np.abs(quad_strip.opposite.control))))
    assert curves_pointwise_equal(quad_strip.base, tilde_c,
                                  samples=200) <= 1e-12 * scale
    assert curves_pointwise_equal(quad_strip.opposite, tilde_d,
                                  samples=200) <= 1e-12 * scale


def test_03_two_piece_solve_from_end_rulings(cubic_curve):
    """Quartic, roots, constants, and polygon of the anchored solve; <100 ms."""
    sol = solve_problem1(cubic_curve, ref.CUBIC_V, ref.CUBIC_W,
                         d0=ref.CUBIC_D0)
    assert sol.m_star_roots == pytest.approx(
        quartic_real_roots(ref.CUBIC_QUARTIC), abs=1e-9)
    assert sol.m_star_roots == pytest.approx(ref.CUBIC_ROOTS, abs=0.01)
    assert sol.sigma == pytest.approx(1.0, abs=1e-12)
    assert sol.chosen_root == pytest.approx(ref.CUBIC_ROOTS[0], abs=0.01)
    assert sol.lambda_star == pytest.approx(ref.CUBIC_LAMBDA_BY_ROOT[0],
                                            abs=0.01)
    assert_polygon_close(sol.strip.opposite.control, ref.CUBIC_D, 0.01)
    last_ruling = (sol.strip.opposite.control[-1]
                   - sol.strip.base.control[-1])
    assert_point_close(last_ruling, ref.CUBIC_LAST_RULING, 0.01)

    assert best_time(lambda: solve_problem1(
        cubic_curve, ref.CUBIC_V, ref.CUBIC_W, d0=ref.CUBIC_D0),
        repeats=3) < 0.1


def test_04_two_corner_solve_with_rescaling(cubic_curve):
    """Elevated polygons within 0.01, corners at 1e-9, blossoms within 0.01."""
    sol = solve_problem2(cubic_curve, ref.CORNER_D0, ref.CORNER_DL)
    assert_polygon_close(sol.elevated_c.control, ref.CORNER_TILDE_C, 0.01)
    assert_polygon_close(sol.elevated_d.control, ref.CORNER_TILDE_D, 0.01)
    assert_point_close(sol.elevated_d.control[0], ref.CORNER_D0, 1e-9)
    assert_point_close(sol.elevated_d.control[-1], ref.CORNER_DL, 1e-9)

    d = sol.strip.opposite
    for args, expected in ref.CUBIC_AUX_C.items():
        piece = (0, 1) if 0.3 in args else (1, 2)
        assert_point_close(blossom(cubic_curve, piece[0], args),
                           expected, 0.01)
    for args, expected in ref.CUBIC_AUX_D.items():
        piece = (0, 1) if 0.3 in args else (1, 2)
        assert_point_close(blossom(d, piece[0], args), expected, 0.01)


def test_05_triangular_patch_with_apex(cubic_curve):
    """Apex data at 1e-9, quartic at 1e-9, polygons within 0.01, velocity 1e-3."""
    v = apex_direction(cubic_curve, ref.TRI_APEX_VELOCITY)
    assert_point_close(v, ref.TRI_APEX_DIRECTION, 1e-9)

    sol = solve_problem3(cubic_curve, ref.TRI_DL, ref.TRI_APEX_VELOCITY,
                         root_choice=ref.TRI_ROOT_INDEX)
    assert sol.m_star_roots == pytest.approx(
        quartic_real_roots(ref.TRI_QUARTIC), abs=1e-9)
    assert sol.m_star_roots == pytest.approx(ref.TRI_ROOTS, abs=0.01)

    # the pinned root index is the one reproducing the printed polygons,
    # and the bundled problem file carries the same choice
    fixture = json.loads((FIXTURES / "splinet.json").read_text())
    assert fixture["root_choice"] == ref.TRI_ROOT_INDEX
    assert sol.chosen_root == pytest.approx(
        ref.TRI_ROOTS[ref.TRI_ROOT_INDEX], abs=0.01)
    assert sol.lambda_star == pytest.approx(ref.TRI_LAMBDA, abs=0.01)
    assert_polygon_close(sol.strip.opposite.control, ref.TRI_D_MID, 0.01)

    assert_polygon_close(sol.final_c.control, ref.TRI_HAT_C, 0.01)
    assert_polygon_close(sol.final_d.control, ref.TRI_HAT_D, 0.01)
    assert_point_close(sol.final_d.evaluate(0.0), (0.0, 0.0, 0.0), 1e-9)
    assert_point_close(sol.final_d.derivative_at(0.0),
                       ref.TRI_APEX_VELOCITY, 1e-3)

    d_mid = sol.strip.opposite
    for args, expected in ref.TRI_AUX_D_MID.items():
        piece = (0, 1) if 0.3 in args else (1, 2)
        assert_point_close(blossom(d_mid, piece[0], args), expected, 0.01)
    tilde_c = sol.elevated_c
    tilde_d = sol.elevated_d
    for args, expected in ref.TRI_AUX_TILDE_C.items():
        assert_point_close(blossom(tilde_c, 0, args), expected, 0.01)
    for args, expected in ref.TRI_AUX_TILDE_D.items():
        assert_point_close(blossom(tilde_d, 0, args), expected, 0.01)


def random_clamped_curve(rng) -> BSplineCurve:
    degree = int(rng.integers(2, 5))
    pieces = int(rng.integers(1, 5))
    breaks = np.concatenate(([0.0],
                             np.cumsum(rng.uniform(0.25, 1.0, size=pieces))))
    knots = ([breaks[0]] * degree + list(breaks[1:-1])
             + [breaks[-1]] * degree)
    control = rng.uniform(-10.0, 10.0, size=(degree + pieces, 3))
    return BSplineCurve(knots, control, degree)


def run_cases(rng, body, want: int = 100, attempts: int = 2000) -> int:
    done = 0
    for _ in range(attempts):
        try:
            body()
        except (InfeasibleProblemError, DegenerateCaseError):
            continue  # legitimately rejected draw, not a failure
        done += 1
        if done == want:
            break
    return done


def test_06_randomized_invariants():
    """100+ seeded cases per invariant at the shipped tolerances, < 60 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260819)

    for _ in range(110):
        c = random_clamped_curve(rng)
        a, b = c.domain
        scale = max(1.0, float(np.max(np.abs(c.control))))
        piece = c.knots.piece_for(rng.uniform(a, b))
        args = rng.uniform(a, b, size=c.degree)
        base = blossom(c, piece, args)
        shuffled = blossom(c, piece, args[rng.permutation(c.degree)])
        assert_point_close(shuffled, base, 1e-12 * scale)
        x, y, theta = rng.uniform(a, b, size=3)
        theta = (theta - a) / (b - a)
        rest = tuple(args[1:])
        mixed = blossom(c, piece, (theta * x + (1 - theta) * y,) + rest)
        combo = (theta * blossom(c, piece, (x,) + rest)
                 + (1 - theta) * blossom(c, piece, (y,) + rest))
        assert_point_close(mixed, combo, 1e-12 * scale)

    for _ in range(110):
        c = random_clamped_curve(rng)
        a, b = c.domain
        scale = max(1.0, float(np.max(np.abs(c.control))))
        while True:
            u = rng.uniform(a + 0.02 * (b - a), b - 0.02 * (b - a))
            if knot_multiplicity(c.knots, u) == 0:
                break
        assert curves_pointwise_equal(c, insert_knot(c, u),
                                      samples=50) <= 1e-12 * scale
        assert curves_pointwise_equal(c, c.elevate_degree(),
                                      samples=50) <= 1e-12 * scale

    for _ in range(110):
        c = random_clamped_curve(rng)
        lam = rng.uniform(-3.0, 3.0)
        m = rng.uniform(-4.0, -0.5)  # generated knots are nonnegative
        d = propagate_polygon(c, rng.uniform(-5.0, 5.0, size=3), lam, m)
        assert float(np.max(control_relation_residuals(c, d, lam, m))) <= 1e-9
        strip = DevelopableStrip(c, d, lam, m)
        assert max(planarity_report(strip)) <= 1e-9
        assert developability_scan(strip, 20).max_residual <= 1e-8

    curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)

    def problem1_case():
        v = rng.uniform(-1.0, 1.0, size=3)
        w = rng.uniform(-1.0, 1.0, size=3)
        if min(np.linalg.norm(v), np.linalg.norm(w)) < 0.3:
            raise InfeasibleProblemError("short draw")
        sigma = rng.uniform(0.5, 2.0)
        sol = solve_problem1(curve, v, w, d0=curve.control[0] + sigma * v)
        assert sol.sigma == pytest.approx(sigma, rel=1e-9)
        assert_point_close(sol.strip.opposite.control[-1],
                           curve.control[-1] + sol.tau * w, 1e-6)
        assert developability_scan(sol.strip, 20).max_residual <= 1e-8

    def problem2_case():
        d0 = np.asarray(ref.CORNER_D0) + rng.uniform(-1.5, 1.5, size=3)
        dL = np.asarray(ref.CORNER_DL) + rng.uniform(-1.5, 1.5, size=3)
        sol = solve_problem2(curve, d0, dL)
        scale = max(1.0, float(np.max(np.abs(sol.elevated_d.control))))
        assert_point_close(sol.elevated_d.control[0], d0, 1e-9 * scale)
        assert_point_close(sol.elevated_d.control[-1], dL, 1e-9 * scale)
        patch = RuledPatch(sol.elevated_c, sol.elevated_d)
        assert developability_scan(patch, 20).max_residual <= 1e-8

    def problem3_case():
        dL = np.asarray(ref.TRI_DL) + rng.uniform(-1.0, 1.0, size=3)
        velocity = (np.asarray(ref.TRI_APEX_VELOCITY)
                    + rng.uniform(-2.0, 2.0, size=3))
        sol = solve_problem3(curve, dL, velocity)
        scale = max(1.0, float(np.max(np.abs(sol.final_d.control))))
        assert_point_close(sol.final_d.control[0], curve.control[0],
                           1e-9 * scale)
        assert_point_close(sol.final_d.control[-1], dL, 1e-9 * scale)
        assert_point_close(sol.final_d.derivative_at(0.0), velocity,
                           1e-6 * max(1.0, float(np.max(np.abs(velocity)))))
        patch = RuledPatch(sol.final_c, sol.final_d)
        assert developability_scan(patch, 20).max_residual <= 1e-8

    assert run_cases(rng, problem1_case) == 100
    assert run_cases(rng, problem2_case) == 100
    assert run_cases(rng, problem3_case) == 100

    assert time.perf_counter() - started < 60.0


def test_07_cli_determinism(tmp_path):
    """Identical solve runs produce byte-identical mesh and reports."""
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["solve", "--problem",
                        str(FIXTURES / "spline3.json"),
                        "--out", str(out)]) == 0
        outputs.append(out)
    first, second = outputs
    for artifact in ("surface.obj", "solution.json", "report.json",
                     "report.txt"):
        assert (first / artifact).read_bytes() == \
            (second / artifact).read_bytes()
