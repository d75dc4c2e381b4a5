"""Sampling-based checks used as oracles for the constructive code."""

from pathlib import Path

import numpy as np
import pytest

from devstrip import (
    BSplineCurve,
    RuledPatch,
    developability_scan,
    parse_problem,
    planarity_report,
    solve_spec,
    solve_problem1,
    solve_problem2,
    solve_problem3,
)
from devstrip.verify import (COLLAPSED_RULING_REL, KNOT_SAMPLE_OFFSET_REL,
                             NORM_FLOOR_REL, PLANARITY_FLOOR_REL)

import reference as ref
from helpers import (assert_point_close, assert_scan_close,
                     curves_pointwise_equal, insert_knot,
                     loop_developability_scan, ruling_profile)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestDevelopabilityScan:

    def test_quad_strip_is_developable(self, quad_strip):
        scan = developability_scan(quad_strip)
        assert scan.max_residual <= 1e-12
        assert scan.samples == 100
        assert scan.skipped == 0

    def test_sparse_scan_reports_worst_and_argmax(self, quad_strip):
        scan = developability_scan(quad_strip, samples_per_piece=7)
        assert scan.max_residual <= 1e-12
        assert 0.0 <= scan.argmax_u <= 1.0

    def test_sample_count_covers_every_piece(self, cubic_curve):
        sol = solve_problem1(cubic_curve, ref.CUBIC_V, ref.CUBIC_W,
                             d0=ref.CUBIC_D0)
        scan = developability_scan(sol.strip, samples_per_piece=40)
        assert scan.samples == 40 * cubic_curve.pieces
        assert scan.max_residual <= 1e-8

    def test_perturbed_strip_is_flagged(self, quad_strip):
        d = np.array(quad_strip.opposite.control)
        d[1] += (0.0, 0.0, 0.1)
        bent = RuledPatch(quad_strip.base,
                          BSplineCurve(quad_strip.knots, d))
        scan = developability_scan(bent)
        assert scan.max_residual > 1e-3
        assert quad_strip.domain[0] < scan.argmax_u < quad_strip.domain[1]

    def test_argmax_points_at_the_worst_parameter(self, quad_strip):
        d = np.array(quad_strip.opposite.control)
        d[1] += (0.0, 0.0, 0.05)
        bent = RuledPatch(quad_strip.base,
                          BSplineCurve(quad_strip.knots, d))
        scan = developability_scan(bent, samples_per_piece=400)
        worst, arg = scan.max_residual, scan.argmax_u
        c = bent.base
        dd = bent.opposite
        ruling = dd.evaluate(arg) - c.evaluate(arg)
        det = abs(np.linalg.det(np.column_stack(
            (c.derivative_at(arg), dd.derivative_at(arg), ruling))))
        recomputed = det / (np.linalg.norm(c.derivative_at(arg))
                            * np.linalg.norm(dd.derivative_at(arg))
                            * np.linalg.norm(ruling))
        assert recomputed == pytest.approx(worst, rel=1e-12)

    def test_too_few_samples_rejected(self, quad_strip):
        with pytest.raises(ValueError, match="at least 2"):
            developability_scan(quad_strip, samples_per_piece=1)

    def test_apex_samples_are_skipped_not_failed(self, cubic_curve):
        sol = solve_problem3(cubic_curve, ref.TRI_DL, ref.TRI_APEX_VELOCITY)
        patch = RuledPatch(sol.final_c, sol.final_d)
        scan = developability_scan(patch, samples_per_piece=50)
        assert scan.skipped >= 1
        assert scan.samples + scan.skipped == 50 * sol.final_c.pieces
        assert scan.max_residual <= 1e-8

    def test_zero_width_strip_skips_everything(self, cubic_curve):
        collapsed = RuledPatch(cubic_curve, cubic_curve)
        scan = developability_scan(collapsed, samples_per_piece=10)
        assert scan.samples == 0
        assert scan.skipped == 10 * cubic_curve.pieces
        assert scan.max_residual == 0.0
        assert scan.argmax_u == collapsed.domain[0]

    @pytest.mark.parametrize("factor, all_skipped", [(0.5, True),
                                                     (2.0, False)])
    def test_collapsed_ruling_threshold_edge(self, cubic_curve, factor,
                                             all_skipped):
        # every ruling is the same translation, of factor times the
        # collapsed-ruling length at the patch scale
        scale = max(1.0, np.max(np.linalg.norm(cubic_curve.control, axis=1)))
        shift = (factor * COLLAPSED_RULING_REL * scale
                 * np.array([0.6, 0.0, 0.8]))
        moved = RuledPatch(cubic_curve, BSplineCurve(
            cubic_curve.knots, cubic_curve.control + shift))
        scan = developability_scan(moved, samples_per_piece=5)
        total = 5 * cubic_curve.pieces
        assert (scan.skipped, scan.samples) == \
            ((total, 0) if all_skipped else (0, total))
        # a skipped sample's rounding-level residual never counts
        assert (scan.max_residual == 0.0) == all_skipped

    @pytest.mark.parametrize("samples", [7, 100])
    @pytest.mark.parametrize("name", ["spline3", "spline4", "splinet"])
    def test_record_equals_the_loop_on_the_fixtures(self, name, samples):
        spec = parse_problem((FIXTURES / f"{name}.json").read_text())
        patch = solve_spec(spec).patch
        scan = developability_scan(patch, samples)
        assert_scan_close(scan, patch,
                          *loop_developability_scan(patch, samples))
        # the triangular fixture's apex sample is skipped, not failed
        assert (scan.skipped > 0) == (name == "splinet")

    @pytest.mark.parametrize("multiple", [0.5, 2.0])
    def test_norm_floor_rel(self, multiple):
        # c' = h e_x with h the multiple of the floor, d' = (h, 1, 0) and
        # the ruling (0, u, 1), so the determinant is h: the residual is h
        # over the larger of h and the floor, at the first sample, where
        # the ruling is unit to within 1e-18
        scale = np.sqrt(2.0)  # the norm of d_1: h * h is below 2's ulp
        h = multiple * NORM_FLOOR_REL * scale
        c = BSplineCurve((0.0, 1.0), ((0.0, 0.0, 0.0), (h, 0.0, 0.0)), 1)
        d = BSplineCurve((0.0, 1.0), ((0.0, 0.0, 1.0), (h, 1.0, 1.0)), 1)
        scan = developability_scan(RuledPatch(c, d), samples_per_piece=5)
        assert scan.max_residual == pytest.approx(min(multiple, 1.0),
                                                  rel=1e-12)
        assert scan.argmax_u == KNOT_SAMPLE_OFFSET_REL

    @pytest.mark.parametrize("samples", [20, 101])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_argmax_is_the_linspace_sample(self, samples, where):
        # c(u) = u e_x and d(u) = (2 u*, u, 1) over three pieces, so the
        # residual 1 / |d - c| peaks where the ruling is shortest, at u*:
        # below the domain, on a sample of the middle piece, or above it.
        # The knots make rounding matter: on the middle piece s (stop -
        # start) / (S - 1) is not s times the step, and on the last piece
        # start + (S - 1) step is not stop, which np.linspace returns last
        knots = (0.25, 0.35, 0.55, 2.0)
        piece, s = {"first": (0, 0), "middle": (1, samples // 2 - 1),
                    "last": (2, samples - 1)}[where]
        lo, hi = knots[piece], knots[piece + 1]
        off = KNOT_SAMPLE_OFFSET_REL * (hi - lo)
        want = np.linspace(lo + off, hi - off, samples)[s]
        peak = {"first": -1.0, "middle": want, "last": 3.0}[where]
        c = BSplineCurve(knots, [(u, 0.0, 0.0) for u in knots], 1)
        d = BSplineCurve(knots, [(2.0 * peak, u, 1.0) for u in knots], 1)
        scan = developability_scan(RuledPatch(c, d), samples)
        assert scan.argmax_u == want

    def test_record_holds_python_numbers(self, quad_strip):
        scan = developability_scan(quad_strip)
        assert type(scan.max_residual) is float
        assert type(scan.argmax_u) is float
        assert type(scan.samples) is int
        assert type(scan.skipped) is int


class TestCurvesPointwiseEqual:

    def test_insertion_preserves_the_point_set(self, cubic_curve):
        refined = insert_knot(insert_knot(cubic_curve, 0.5), 0.12)
        assert curves_pointwise_equal(cubic_curve, refined) <= 1e-12

    def test_elevation_preserves_the_point_set(self, cubic_curve):
        raised = cubic_curve.elevate_degree()
        assert curves_pointwise_equal(cubic_curve, raised) <= 1e-12

    def test_distinct_curves_measure_apart(self, cubic_curve):
        moved = np.array(cubic_curve.control)
        moved[3] += (0.0, 0.5, 0.0)
        other = BSplineCurve(cubic_curve.knots, moved)
        assert curves_pointwise_equal(cubic_curve, other) > 1e-2

    def test_rescaled_boundary_matches_the_blend(self, cubic_curve):
        # the degree-raised opposite boundary must trace the same points as
        # the direct blend (1-f(u)) c(u) + f(u) d(u)
        sol = solve_problem2(cubic_curve, ref.CORNER_D0, ref.CORNER_DL)
        inner = sol.strip
        f = ruling_profile(cubic_curve.domain, 1.0, 1.0 / sol.tau)
        worst = 0.0
        for u in np.linspace(0.0, 1.0, 160):
            blend = inner.ruled_eval(u, f(u))
            worst = max(worst, float(np.linalg.norm(
                sol.elevated_d.evaluate(u) - blend)))
        scale = max(1.0, float(np.max(np.abs(sol.elevated_d.control))))
        assert worst <= 1e-9 * scale

    def test_mismatched_domains_rejected(self, cubic_curve):
        stretched = BSplineCurve(
            tuple(2.0 * u for u in ref.CUBIC_KNOTS), ref.CUBIC_CONTROL, 3)
        with pytest.raises(ValueError, match="different domains"):
            curves_pointwise_equal(cubic_curve, stretched)

    def test_too_few_samples_rejected(self, cubic_curve):
        with pytest.raises(ValueError, match="at least 2"):
            curves_pointwise_equal(cubic_curve, cubic_curve, samples=1)


class TestPlanarityReport:

    def test_quad_strip_cells(self, quad_strip):
        report = planarity_report(quad_strip)
        assert len(report) == 2
        assert max(report) <= 1e-15

    def test_single_cell_strip(self):
        c = BSplineCurve((0.0, 1.0), ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 1)
        d = BSplineCurve((0.0, 1.0), ((0.0, 1.0, 0.0), (1.0, 1.0, 1.0)), 1)
        report = planarity_report(RuledPatch(c, d))
        assert len(report) == 1
        assert report[0] > 1e-3  # genuinely twisted cell

    @pytest.mark.parametrize("multiple", [0.5, 2.0])
    def test_planarity_floor_rel(self, multiple):
        # a cell whose edge c_1 - c_0 is the multiple of the floor long, the
        # other two unit and square to it (the cell scale is 1): the
        # determinant, that length, is divided by the larger of the two
        e = multiple * PLANARITY_FLOOR_REL
        c = BSplineCurve((0.0, 1.0), ((0.0, 0.0, 0.0), (e, 0.0, 0.0)), 1)
        d = BSplineCurve((0.0, 1.0), ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 1)
        report = planarity_report(RuledPatch(c, d))
        assert report == pytest.approx([min(multiple, 1.0)], rel=1e-12)

    def test_picks_out_the_bent_cell(self, quad_strip):
        d = np.array(quad_strip.opposite.control)
        d[2] += (0.0, 0.0, 0.2)
        bent = RuledPatch(quad_strip.base,
                          BSplineCurve(quad_strip.knots, d))
        report = planarity_report(bent)
        assert report[1] > 1e-3
        assert report[0] <= 1e-15
