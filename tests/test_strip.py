"""Strip construction: propagation recursion, relation residuals, planarity."""

import numpy as np
import pytest

from devstrip import (
    BSplineCurve,
    DevelopableStrip,
    RuledPatch,
    control_relation_residuals,
    planarity_report,
    propagate_polygon,
)
from devstrip.strip import CONTROL_RELATION_TOL, RELATION_FLOOR_REL

import reference as ref
from helpers import (assert_point_close, assert_polygon_close, insert_knot,
                     one_cell_planarity, ruling_at)


class TestRuledPatch:

    def test_mismatched_knots_rejected(self, quad_curve, cubic_curve):
        with pytest.raises(ValueError, match="share one knot vector"):
            RuledPatch(quad_curve, cubic_curve)

    def test_boundaries_recovered_at_v_0_and_1(self, quad_strip):
        for u in (0.0, 0.25, 0.8, 1.0):
            assert_point_close(quad_strip.ruled_eval(u, 0.0),
                               quad_strip.base.evaluate(u), 1e-14)
            assert_point_close(quad_strip.ruled_eval(u, 1.0),
                               quad_strip.opposite.evaluate(u), 1e-14)

    def test_rulings_are_affine_in_v(self, quad_strip):
        p0 = quad_strip.ruled_eval(0.4, 0.0)
        p1 = quad_strip.ruled_eval(0.4, 1.0)
        assert_point_close(quad_strip.ruled_eval(0.4, 0.5), 0.5 * (p0 + p1),
                           1e-14)
        # v outside [0, 1] extends past the opposite boundary
        assert_point_close(quad_strip.ruled_eval(0.4, 2.0), 2.0 * p1 - p0,
                           1e-14)

    def test_ruling_at_is_the_boundary_difference(self, quad_strip):
        u = 0.3
        expected = (quad_strip.opposite.evaluate(u)
                    - quad_strip.base.evaluate(u))
        assert_point_close(ruling_at(quad_strip, u), expected, 1e-14)

    def test_domain_comes_from_the_base(self, quad_strip):
        assert quad_strip.domain == (0.0, 1.0)
        assert quad_strip.knots == quad_strip.base.knots


class TestPropagatePolygon:

    def test_quadratic_recursion_closes_in_exact_fractions(self, quad_curve):
        d = propagate_polygon(quad_curve, ref.QUAD_D0,
                              ref.QUAD_LAMBDA, ref.QUAD_M)
        assert_polygon_close(d.control, ref.QUAD_D, 1e-14)
        # the interior point lands on 13/6, 3/2, 9/2 exactly
        assert_point_close(d.control[2], (13.0 / 6.0, 1.5, 4.5), 1e-15)

    def test_first_point_is_the_anchor(self, quad_curve):
        d = propagate_polygon(quad_curve, (1.0, -2.0, 0.5), -4.0, -5.0)
        assert_point_close(d.control[0], (1.0, -2.0, 0.5), 0.0)

    def test_result_shares_the_knot_vector(self, quad_curve):
        d = propagate_polygon(quad_curve, ref.QUAD_D0,
                              ref.QUAD_LAMBDA, ref.QUAD_M)
        assert d.knots == quad_curve.knots

    def test_equal_constants_copy_the_polygon(self, cubic_curve):
        # lambda_star == m_star turns the relation into d_i = c_i cell by
        # cell once the anchor coincides, so the strip has zero width
        d = propagate_polygon(cubic_curve, cubic_curve.control[0], -2.0, -2.0)
        assert_polygon_close(d.control, cubic_curve.control, 1e-13)

    def test_m_star_on_a_knot_is_rejected(self, quad_curve):
        with pytest.raises(ValueError, match="pole guard"):
            propagate_polygon(quad_curve, ref.QUAD_D0, ref.QUAD_LAMBDA, 0.0)

    def test_m_star_near_a_knot_is_rejected(self, quad_curve):
        with pytest.raises(ValueError, match="pole guard"):
            propagate_polygon(quad_curve, ref.QUAD_D0, ref.QUAD_LAMBDA, 1e-8)

    def test_m_star_beyond_the_guard_is_accepted(self, quad_curve):
        d = propagate_polygon(quad_curve, ref.QUAD_D0, ref.QUAD_LAMBDA, -1e-4)
        assert np.all(np.isfinite(d.control))


class TestControlRelation:

    def test_quad_strip_residuals_vanish(self, quad_strip):
        residuals = control_relation_residuals(
            quad_strip.base, quad_strip.opposite,
            ref.QUAD_LAMBDA, ref.QUAD_M)
        assert residuals.shape == (2,)
        assert np.max(residuals) <= 1e-15
        assert max(control_relation_residuals(
            quad_strip.base, quad_strip.opposite,
            quad_strip.lambda_star, quad_strip.m_star)) <= 1e-15

    def test_perturbed_polygon_is_flagged(self, quad_strip):
        d = np.array(quad_strip.opposite.control)
        d[1] += (0.1, 0.0, 0.0)
        moved = BSplineCurve(quad_strip.knots, d)
        residuals = control_relation_residuals(
            quad_strip.base, moved, ref.QUAD_LAMBDA, ref.QUAD_M)
        assert np.max(residuals) > 1e-3

    def test_residual_is_scale_free(self, quad_strip):
        c = BSplineCurve(quad_strip.knots, 1e6 * quad_strip.base.control)
        d = BSplineCurve(quad_strip.knots, 1e6 * quad_strip.opposite.control)
        residuals = control_relation_residuals(
            c, d, ref.QUAD_LAMBDA, ref.QUAD_M)
        assert np.max(residuals) <= 1e-12

    def test_mismatched_knots_rejected(self, quad_curve, cubic_curve):
        with pytest.raises(ValueError, match="share one knot vector"):
            control_relation_residuals(quad_curve, cubic_curve, -1.0, -2.0)

    @pytest.mark.parametrize("multiple", [0.5, 2.0])
    def test_relation_floor_rel(self, multiple):
        # one linear cell at λ* = m* = 1/2 whose three nonzero terms have
        # norm t/2, the multiple of the floor (the polygon scale is 1): the
        # defect √3·t/2 is divided by the larger of the two
        t = 2.0 * multiple * RELATION_FLOOR_REL
        c = BSplineCurve((0.0, 1.0), ((t, 0.0, 0.0), (0.0, t, 0.0)), 1)
        d = BSplineCurve((0.0, 1.0), ((0.0, 0.0, t), (0.0, 0.0, 0.0)), 1)
        residual, = control_relation_residuals(c, d, 0.5, 0.5)
        assert residual == pytest.approx(np.sqrt(3.0) * min(multiple, 1.0),
                                         rel=1e-12)


class TestCellPlanarity:

    def test_planar_cell_is_exact_zero(self):
        cell = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0), (2.0, 3.0, 0.0))
        assert one_cell_planarity(cell) == 0.0

    def test_unit_tetrahedron_cell(self):
        cell = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert one_cell_planarity(cell) == pytest.approx(1.0)

    def test_residual_is_scale_free(self):
        cell = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0), (0.3, 0.4, 0.25))
        scaled = tuple(tuple(1e5 * x for x in p) for p in cell)
        assert one_cell_planarity(scaled) == pytest.approx(
            one_cell_planarity(cell), rel=1e-9)

    def test_quad_strip_cells_are_planar(self, quad_strip):
        assert max(planarity_report(quad_strip)) <= 1e-15


class TestDevelopableStrip:

    def test_quad_strip_constructs(self, quad_strip):
        assert quad_strip.lambda_star == ref.QUAD_LAMBDA
        assert quad_strip.m_star == ref.QUAD_M
        assert "degree=2" in repr(quad_strip)

    def test_violating_polygon_is_rejected_naming_the_cell(self, quad_strip):
        d = np.array(quad_strip.opposite.control)
        d[2] += (0.0, 0.1, 0.0)
        moved = BSplineCurve(quad_strip.knots, d)
        with pytest.raises(ValueError, match="cell 1"):
            DevelopableStrip(quad_strip.base, moved,
                             ref.QUAD_LAMBDA, ref.QUAD_M)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_control_relation_tol(self, quad_strip, factor):
        # moving d_L by h along x moves only the last cell's defect, by
        # |m* - u_{L-1}| h over nearly the same largest term: h is scaled
        # so that the worst normalized defect is factor times the tolerance
        def moved(h):
            d = np.array(quad_strip.opposite.control)
            d[-1] += (h, 0.0, 0.0)
            return BSplineCurve(quad_strip.knots, d)

        def residuals(h):
            return control_relation_residuals(quad_strip.base, moved(h),
                                              ref.QUAD_LAMBDA, ref.QUAD_M)

        probe = 1e-6
        h = factor * CONTROL_RELATION_TOL * probe / residuals(probe).max()
        last = len(quad_strip.base.control) - 2
        assert residuals(h).argmax() == last
        assert residuals(h).max() == pytest.approx(
            factor * CONTROL_RELATION_TOL, rel=1e-3)
        if factor < 1.0:
            DevelopableStrip(quad_strip.base, moved(h), ref.QUAD_LAMBDA,
                             ref.QUAD_M)
        else:
            with pytest.raises(ValueError, match=f"fails at cell {last}:"):
                DevelopableStrip(quad_strip.base, moved(h), ref.QUAD_LAMBDA,
                                 ref.QUAD_M)

    def test_zero_width_strip_is_valid(self, cubic_curve):
        strip = DevelopableStrip(cubic_curve, cubic_curve, -2.0, -2.0)
        assert_point_close(ruling_at(strip, 0.5), (0.0, 0.0, 0.0), 0.0)

    def test_knot_insertion_preserves_the_strip(self, quad_strip):
        # inserting the same knot into both boundaries leaves the surface
        # unchanged, so the refined net must satisfy the same relation
        c = insert_knot(quad_strip.base, 0.5)
        d = insert_knot(quad_strip.opposite, 0.5)
        refined = DevelopableStrip(c, d, ref.QUAD_LAMBDA, ref.QUAD_M)
        for u in (0.0, 0.3, 0.5, 0.7, 1.0):
            for v in (0.0, 0.5, 1.0):
                assert_point_close(refined.ruled_eval(u, v),
                                   quad_strip.ruled_eval(u, v), 1e-13)

    def test_middle_cell_residual_of_the_elevated_net(self, quad_strip):
        # the raised net is not a developable net for the same constants:
        # its middle cell is genuinely non-planar by a known exact amount
        c = quad_strip.base.elevate_degree()
        d = quad_strip.opposite.elevate_degree()
        assert_polygon_close(c.control, ref.QUAD_TILDE_C, 1e-14)
        assert_polygon_close(d.control, ref.QUAD_TILDE_D, 1e-14)
        middle = one_cell_planarity(
            (c.control[1], c.control[2], d.control[1], d.control[2]))
        assert middle == pytest.approx(ref.QUAD_TILDE_MIDDLE_RESIDUAL,
                                       rel=1e-12)
        with pytest.raises(ValueError, match="control relation fails"):
            DevelopableStrip(c, d, ref.QUAD_LAMBDA, ref.QUAD_M)
